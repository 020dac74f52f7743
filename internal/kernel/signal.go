package kernel

import (
	"interpose/internal/sys"
	"interpose/internal/trace"
)

// unmaskable signals can be neither blocked, caught, nor ignored.
const unmaskable = uint32(1<<(sys.SIGKILL-1)) | uint32(1<<(sys.SIGSTOP-1))

// sigDefaultIgnore is the set of signals whose default action is to be
// discarded.
var sigDefaultIgnore = sigSet(sys.SIGCHLD, sys.SIGIO, sys.SIGURG, sys.SIGWINCH,
	sys.SIGINFO, sys.SIGCONT)

// sigDefaultStop is the set of signals whose default action stops the
// process.
var sigDefaultStop = sigSet(sys.SIGSTOP, sys.SIGTSTP, sys.SIGTTIN, sys.SIGTTOU)

func sigSet(sigs ...int) uint32 {
	var m uint32
	for _, s := range sigs {
		m |= sys.SigMask(s)
	}
	return m
}

// postSignalPLocked marks sig pending on p and wakes any interruptible
// sleep. The caller holds k.pmu — signal posting can change process state
// (SIGCONT resumes a stopped process), and state transitions belong to
// the process-table lock. p.sigMu is taken internally, so the caller must
// not hold any object lock (pipe, console, flock): a waker inside such a
// lock releases it before posting.
func (k *Kernel) postSignalPLocked(p *Proc, sig int) {
	if sig <= 0 || sig >= sys.NSIG {
		return
	}
	st := p.loadState()
	if st == procZombie || st == procDead {
		return
	}
	p.sigMu.Lock()
	defer p.sigMu.Unlock()
	continued := false
	if sig == sys.SIGCONT {
		// Continuing clears pending stops, and vice versa.
		p.sigPending &^= sigDefaultStop
		if st == procStopped {
			p.setStateLocked(procRunning)
			continued = true
		}
	}
	if sigDefaultStop&sys.SigMask(sig) != 0 {
		p.sigPending &^= sys.SigMask(sys.SIGCONT)
	}
	// Discard at post time if the disposition is to ignore — explicitly,
	// or by default action (4.3BSD behaviour; an ignored signal must not
	// interrupt a sleep). An ignored SIGCONT still continues the process,
	// and with targeted wait queues the stopped sleeper must be woken
	// explicitly — there is no system-wide broadcast to catch it anymore.
	sv := p.sigHandlers[sig]
	ignored := sv.Handler == sys.SIG_IGN ||
		(sv.Handler == sys.SIG_DFL && sigDefaultIgnore&sys.SigMask(sig) != 0)
	if ignored && sig != sys.SIGKILL && sig != sys.SIGSTOP {
		p.refreshAttnLocked()
		if continued {
			p.wakeup()
		}
		return
	}
	p.sigPending |= sys.SigMask(sig)
	p.refreshAttnLocked()
	p.wakeup()
}

// noteSigCause records the poster's open root span as the causal origin
// of the next signal delivered to target (the post→deliver edge of
// causal tracing). Best-effort: one slot, latest poster wins, consumed
// at delivery. Takes only target.sigMu, the innermost lock, so any
// posting context may call it.
func noteSigCause(target *Proc, traceID, span uint64) {
	if span == 0 {
		return
	}
	target.sigMu.Lock()
	target.sigCauseTrace = traceID
	target.sigCauseSpan = span
	target.sigMu.Unlock()
}

// PostSignal delivers sig to p from outside the system interface (tests,
// tooling). Normal code uses the kill system call.
func (k *Kernel) PostSignal(p *Proc, sig int) {
	k.pmu.Lock()
	defer k.pmu.Unlock()
	k.postSignalPLocked(p, sig)
}

// deliverableSigLocked returns the pending, unmasked signal set. Caller
// holds p.sigMu.
func (p *Proc) deliverableSigLocked() uint32 {
	return p.sigPending &^ (p.sigMask &^ unmaskable)
}

// refreshAttnLocked recomputes the signal-attention flag. It must be
// called, holding p.sigMu, after any change to the pending set, the mask,
// the pause mask, or the process state — the flag is what lets the
// syscall exit path skip taking sigMu entirely.
func (p *Proc) refreshAttnLocked() {
	if p.deliverableSigLocked() != 0 || p.loadState() != procRunning || p.pauseMask != nil {
		p.sigAttn.Store(1)
	} else {
		p.sigAttn.Store(0)
	}
}

// checkSignals delivers pending unmasked signals. It runs on the process's
// own goroutine at system call exit (and from Yield). The fast path is one
// atomic load: with no signal work pending, syscall exit takes no lock.
func (p *Proc) checkSignals() {
	if p.sigAttn.Load() == 0 {
		return
	}
	p.checkSignalsSlow()
}

// checkSignalsSlow walks each deliverable signal up through interested
// emulation layers to the application handler or default action. It must
// be called with no kernel locks held.
func (p *Proc) checkSignalsSlow() {
	for {
		p.sigMu.Lock()
		// Stopped: sleep until continued or killed. The wait parks on the
		// process's own wake token under sigMu, the same lock postSignal
		// uses to change the pending set after a SIGCONT state change, so
		// the continue cannot be lost.
		for p.loadState() == procStopped && p.sigPending&sys.SigMask(sys.SIGKILL) == 0 {
			p.drainWake()
			p.sigMu.Unlock()
			<-p.wake
			p.sigMu.Lock()
		}
		deliverable := p.deliverableSigLocked()
		if deliverable == 0 {
			if p.pauseMask != nil {
				p.sigMask = *p.pauseMask
				p.pauseMask = nil
			}
			p.refreshAttnLocked()
			p.sigMu.Unlock()
			return
		}
		sig := 0
		for s := 1; s < sys.NSIG; s++ {
			if deliverable&sys.SigMask(s) != 0 {
				sig = s
				break
			}
		}
		p.sigPending &^= sys.SigMask(sig)
		p.refreshAttnLocked()
		dispatch := p.sigDispatch
		causeTrace, causeSpan := p.sigCauseTrace, p.sigCauseSpan
		p.sigCauseTrace, p.sigCauseSpan = 0, 0
		p.sigMu.Unlock()

		// Causal tracing: an instant delivery span linked to the poster's
		// span. The receiver adopts the poster's trace if it has none yet,
		// and the delivery becomes the causal parent of whatever the
		// receiver does next (e.g. a handler's first system call).
		if causeSpan != 0 {
			if t := p.k.trc.Load(); t != nil {
				if p.traceID == 0 {
					p.traceID = causeTrace
				}
				sp := trace.Span{
					Trace: p.traceID,
					ID:    t.NewSpanID(),
					Link:  causeSpan,
					PID:   int32(p.pid),
					Num:   int32(sig),
					Layer: trace.LayerSignal,
					Start: t.Now(),
				}
				t.Record(sp)
				p.causeSpan = sp.ID
			}
		}

		// Upward interposition path: kernel → layers (bottom first) → app.
		// An interposer may rewrite the signal, so the application's
		// disposition is looked up for the signal that actually arrives.
		if s2 := p.signalUp(sig); s2 > 0 && s2 < sys.NSIG {
			p.sigMu.Lock()
			sv := p.sigHandlers[s2]
			p.sigMu.Unlock()
			p.deliverToUser(s2, sv, dispatch)
		}
	}
}

// signalUp runs the signal through the emulation layers, bottom first,
// returning the possibly rewritten signal, 0 if consumed.
func (p *Proc) signalUp(sig int) int {
	pl := p.plan.Load()
	for i := 0; i < len(pl.layers) && sig != 0; i++ {
		l := pl.layers[i]
		if l.WantsSignal(sig) {
			sig = l.Signals.Signal(pl.ctxs[i], sig, 0)
		}
	}
	return sig
}

// deliverToUser applies the handler or default action for sig.
func (p *Proc) deliverToUser(sig int, sv sys.Sigvec, dispatch func(int, sys.Word)) {
	switch {
	case sig == sys.SIGKILL || (sv.Handler == sys.SIG_DFL && defaultTerminates(sig)):
		p.exitNow(sys.WStatusSignal(sig))
	case sv.Handler == sys.SIG_DFL && sigDefaultStop&sys.SigMask(sig) != 0:
		p.k.pmu.Lock()
		p.setStateLocked(procStopped)
		p.k.pmu.Unlock()
		p.sigMu.Lock()
		p.refreshAttnLocked()
		p.sigMu.Unlock()
	case sv.Handler == sys.SIG_DFL || sv.Handler == sys.SIG_IGN:
		// Default-ignore or explicitly ignored: nothing to do.
	default:
		if dispatch == nil {
			// No user dispatcher installed: treat as default terminate.
			p.exitNow(sys.WStatusSignal(sig))
		}
		// Block sig (and sv.Mask) during the handler, as sigvec promises.
		p.sigMu.Lock()
		old := p.sigMask
		p.sigMask |= sys.SigMask(sig) | sv.Mask
		p.refreshAttnLocked()
		p.sigMu.Unlock()
		dispatch(sig, sv.Handler)
		p.sigMu.Lock()
		p.sigMask = old
		p.refreshAttnLocked()
		p.sigMu.Unlock()
	}
}

func defaultTerminates(sig int) bool {
	return sigDefaultIgnore&sys.SigMask(sig) == 0 && sigDefaultStop&sys.SigMask(sig) == 0
}

package kernel

import "interpose/internal/sys"

func (k *Kernel) sysKill(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	pid := int(int32(a[0]))
	sig := int(a[1])
	if sig < 0 || sig >= sys.NSIG {
		return sys.Retval{}, sys.EINVAL
	}
	p.mu.Lock()
	cuid, ceuid := p.uid, p.euid
	p.mu.Unlock()

	k.pmu.Lock()
	defer k.pmu.Unlock()

	mayKill := func(t *Proc) bool {
		t.mu.Lock()
		tuid, teuid := t.uid, t.euid
		t.mu.Unlock()
		return ceuid == 0 || cuid == tuid || ceuid == tuid || cuid == teuid
	}
	post := func(t *Proc) {
		if sig != 0 {
			// Causal tracing: remember the killer's open span so the
			// delivery span can link back to it. Noted before the post:
			// a running target may take the signal as soon as it is
			// pending.
			noteSigCause(t, p.traceID, p.curSpan)
			k.postSignalPLocked(t, sig)
		}
	}
	alive := func(t *Proc) bool {
		st := t.loadState()
		return st == procRunning || st == procStopped
	}

	switch {
	case pid > 0:
		t, ok := k.procs[pid]
		if !ok || !alive(t) {
			return sys.Retval{}, sys.ESRCH
		}
		if !mayKill(t) {
			return sys.Retval{}, sys.EPERM
		}
		post(t)
	case pid == 0, pid < -1:
		pgrp := p.pgrp
		if pid < -1 {
			pgrp = -pid
		}
		found, denied := false, false
		for _, t := range k.procs {
			if t.pgrp != pgrp || !alive(t) {
				continue
			}
			if !mayKill(t) {
				denied = true
				continue
			}
			found = true
			post(t)
		}
		if !found {
			if denied {
				return sys.Retval{}, sys.EPERM
			}
			return sys.Retval{}, sys.ESRCH
		}
	case pid == -1:
		found := false
		for _, t := range k.procs {
			if t == p || t.pid == 1 || !alive(t) {
				continue
			}
			if mayKill(t) {
				found = true
				post(t)
			}
		}
		if !found {
			return sys.Retval{}, sys.ESRCH
		}
	}
	return sys.Retval{}, sys.OK
}

func (k *Kernel) sysSigvec(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	sig := int(a[0])
	nsvAddr, osvAddr := a[1], a[2]
	if sig <= 0 || sig >= sys.NSIG {
		return sys.Retval{}, sys.EINVAL
	}
	p.sigMu.Lock()
	old := p.sigHandlers[sig]
	p.sigMu.Unlock()
	if osvAddr != 0 {
		var b [sys.SigvecSize]byte
		old.Encode(b[:])
		if e := p.CopyOut(osvAddr, b[:]); e != sys.OK {
			return sys.Retval{}, e
		}
	}
	if nsvAddr != 0 {
		if sig == sys.SIGKILL || sig == sys.SIGSTOP {
			return sys.Retval{}, sys.EINVAL
		}
		var b [sys.SigvecSize]byte
		if e := p.CopyIn(nsvAddr, b[:]); e != sys.OK {
			return sys.Retval{}, e
		}
		sv := sys.DecodeSigvec(b[:])
		p.sigMu.Lock()
		p.sigHandlers[sig] = sv
		if sv.Handler == sys.SIG_IGN {
			p.sigPending &^= sys.SigMask(sig)
		}
		p.refreshAttnLocked()
		p.sigMu.Unlock()
	}
	return sys.Retval{}, sys.OK
}

func (k *Kernel) sysSigblock(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	p.sigMu.Lock()
	defer p.sigMu.Unlock()
	old := p.sigMask
	p.sigMask |= a[0] &^ unmaskable
	p.refreshAttnLocked()
	return sys.Retval{old}, sys.OK
}

func (k *Kernel) sysSigsetmask(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	p.sigMu.Lock()
	defer p.sigMu.Unlock()
	old := p.sigMask
	p.sigMask = a[0] &^ unmaskable
	p.refreshAttnLocked()
	return sys.Retval{old}, sys.OK
}

func (k *Kernel) sysSigpause(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	// Atomically set the mask and wait for a deliverable signal. The wait
	// parks on the process's own wake token under sigMu — the same lock
	// every signal post takes — so a signal cannot slip between the check
	// and the park.
	p.sigMu.Lock()
	old := p.sigMask
	p.sigMask = a[0] &^ unmaskable
	p.refreshAttnLocked()
	for p.deliverableSigLocked() == 0 && p.loadState() == procRunning {
		p.drainWake()
		p.sigMu.Unlock()
		<-p.wake
		p.sigMu.Lock()
	}
	// Restore the mask after the pending signal has been delivered (which
	// happens at system call exit); checkSignals consumes pauseMask.
	p.pauseMask = &old
	p.refreshAttnLocked()
	p.sigMu.Unlock()
	return sys.Retval{}, sys.EINTR
}

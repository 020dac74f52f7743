package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"interpose/internal/image"
	"interpose/internal/mem"
	"interpose/internal/sys"
	"interpose/internal/telemetry"
	"interpose/internal/trace"
	"interpose/internal/vfs"
)

// procState is a process's lifecycle state. It is stored in an atomic so
// any goroutine may read it; writes happen only under the process-table
// lock k.pmu (state transitions are part of process lifecycle).
type procState = int32

const (
	procRunning procState = iota
	procStopped
	procZombie
	procDead // reaped
)

// Proc is one simulated process. Field groups are guarded by the lock
// named in their comment; fields with no lock are either immutable after
// construction or touched only by the process's own goroutine. Proc
// implements sys.Ctx and image.Proc.
type Proc struct {
	k   *Kernel
	pid int // immutable

	// Guarded by k.pmu (process genealogy and lifecycle).
	ppid       int
	pgrp       int
	exitStatus sys.Word
	children   map[int]*Proc
	childrenRu sys.Rusage // accumulated rusage of reaped children

	// itimer is the ITIMER_REAL state (not inherited by fork children).
	// Guarded by k.pmu.
	itimer itimerState

	// state is read lock-free anywhere; written only under k.pmu.
	state atomic.Int32

	// started is set just before the process goroutine is spawned. A
	// process without one (NewProc driven from the host, never Started)
	// can never process a signal, so Shutdown exits it directly.
	started atomic.Bool

	// finished elects the single finishExit caller. Normally only the
	// process's own goroutine exits it, but host-side Shutdown may race
	// a concurrent Start on a not-yet-started process; the CAS makes the
	// loser a no-op instead of a double teardown.
	finished atomic.Bool

	as *mem.AS // has its own internal lock

	// mu guards per-process identity: working directories, credentials,
	// umask, resource limits, the program name, and fork/exec staging.
	mu          sync.Mutex
	cwd         *vfs.Inode
	root        *vfs.Inode
	uid         uint32
	euid        uint32
	gid         uint32
	egid        uint32
	groups      []uint32
	umask       uint32
	rlimits     [sys.RLIM_NLIMITS]sys.Rlimit
	comm        string
	stagedChild image.Entry
	initialSP   sys.Word

	// fdMu guards the descriptor table. In practice only the process's
	// own goroutine touches it (plus host-side setup before the process
	// starts), so it is essentially uncontended.
	fdMu sync.Mutex
	fds  []fdesc

	// sigMu is the innermost lock in the kernel: it guards signal state
	// and may be taken while holding any other kernel lock, and must
	// never be held while taking one.
	sigMu       sync.Mutex
	sigMask     uint32
	sigPending  uint32
	sigHandlers [sys.NSIG]sys.Sigvec
	sigDispatch func(sig int, handler sys.Word) // user-mode upcall, set by libc
	pauseMask   *uint32                         // sigpause restore mask

	// sigAttn is 1 when checkSignals has work to do (a deliverable
	// signal is pending, the process is not running, or a sigpause mask
	// must be restored). It is recomputed under sigMu at every mutation
	// site so the syscall exit path is a single atomic load.
	sigAttn atomic.Uint32

	// wake is the process's sleep token: sleepOn parks on it, wakers do a
	// non-blocking send (see wait.go). Buffered, capacity 1.
	wake chan struct{}

	// childQ holds this process when it sleeps in wait4; guarded by
	// k.pmu, woken by exiting children.
	childQ waitQ

	// exitDone is closed when the process becomes a zombie, for host-side
	// WaitExit callers (which are not processes and cannot park on a
	// wait queue).
	exitDone chan struct{}

	// Emulation (interposition) layers, bottom (index 0) to top. emu is
	// the mutable source list, guarded by p.mu; plan is its compiled
	// form (per-syscall interest bitmaps plus preboxed per-layer call
	// contexts), rebuilt on every attach/detach and published atomically.
	// The dispatch path reads only the plan: one atomic load, no lock.
	emu  []*EmuLayer
	plan atomic.Pointer[dispatchPlan]

	startTime time.Time // immutable
	nsyscalls uint32    // atomic

	pendingChildInit bool // fresh fork child: run layer InitChild hooks; p.mu
	execDepth        int  // interpreter recursion guard; own goroutine only

	// emuCursor is the bump allocator over the emulator segment, used by
	// agent layers to stage downcall arguments. It resets at each
	// top-level system call entry. Only the process's own goroutine
	// touches it.
	emuCursor sys.Word

	// telChild accumulates, within the current dispatch frame, the wall
	// time spent in lower instances of the system interface — the
	// subtrahend of per-layer self-time attribution. Reset at each
	// top-level system call entry.
	telChild int64 // nanoseconds

	// Span-tracing state (see internal/trace). Like emuCursor and
	// telChild, these are touched only by the process's own goroutine:
	// every upcall, downcall and kernel leg of a call runs on the goroutine
	// that made it. Fork copies trace identity into the child on the
	// parent's goroutine before publishProc makes the child visible, and
	// the exiting goroutine hands curSpan and traceID to finishExit (a
	// host-side finisher passes zeros instead).
	trcRand    uint64 // xorshift head-sampling state, seeded lazily from the pid
	traceID    uint64 // trace this process belongs to (0 until first sampled span; fork-inherited)
	causeSpan  uint64 // causal parent for the next root span (fork/exec/signal edge); consumed on use
	curSpan    uint64 // open root span of the call in flight; 0 when unsampled
	spanParent uint64 // innermost open span: parent for nested layer/kernel child spans
	curLink    uint64 // pending cross-process link (pipe read, reaped child) for the open root span

	// exitSpan is the root span of the process's exit call, written in
	// finishExit under k.pmu before the zombie transition and read by the
	// reaping parent in wait4, also under k.pmu (the wait causal edge).
	exitSpan uint64

	// exitPages is the resident page count when the process exited,
	// recorded by finishExit before it releases the address space and
	// before the zombie transition; rusageSelf reports Maxrss from it
	// once the (atomic) state says the process has exited.
	exitPages int

	// sigCauseTrace/sigCauseSpan identify the poster's open span for the
	// next delivered signal (the signal post→deliver causal edge).
	// Guarded by sigMu.
	sigCauseTrace uint64
	sigCauseSpan  uint64
}

// loadState reads the lifecycle state without any lock.
func (p *Proc) loadState() procState { return p.state.Load() }

// setStateLocked transitions the lifecycle state. Caller holds k.pmu.
func (p *Proc) setStateLocked(s procState) { p.state.Store(s) }

// EmuLayer is one installed interposition layer: a handler, the set of
// system calls and signals it has registered interest in, and optionally
// a signal interposer. Interest is registered through the embedded set
// (RegisterInterest, RegisterAll, ...) before the layer is pushed; the
// dispatch plan compiled at push time reads it.
type EmuLayer struct {
	Handler sys.Handler
	Signals sys.SignalInterposer

	// Name labels the layer in telemetry attribution (the agent name);
	// empty names get a positional label.
	Name string

	sys.Interest
}

// NewEmuLayer wraps a handler as an emulation layer with no interests
// registered yet.
func NewEmuLayer(h sys.Handler) *EmuLayer { return &EmuLayer{Handler: h} }

// WantsSignal reports whether the layer interposes on signal sig.
func (l *EmuLayer) WantsSignal(sig int) bool {
	return l.Signals != nil && l.Interest.WantsSignal(sig)
}

// ChildIniter is implemented by emulation-layer handlers that need a hook
// run in a newly forked child before it executes user code (the toolkit's
// init_child).
type ChildIniter interface {
	InitChild(c sys.Ctx)
}

// ProcExiter is implemented by emulation-layer handlers that keep
// per-process state (descriptor tables and the like); the kernel invokes
// it when a client process terminates for any reason.
type ProcExiter interface {
	ProcExit(pid int)
}

// allocPID hands out the next process id.
func (k *Kernel) allocPID() int {
	k.pmu.Lock()
	defer k.pmu.Unlock()
	pid := k.nextPID
	k.nextPID++
	return pid
}

// newProc builds a fully initialized process with address space as that
// is NOT yet in the process table. Callers populate inherited state and
// then publish it with publishProc, so no concurrent kill or wait can
// observe a half-constructed process.
func (k *Kernel) newProc(pid int, as *mem.AS) *Proc {
	p := &Proc{
		k:         k,
		pid:       pid,
		pgrp:      pid,
		as:        as,
		cwd:       k.fs.Root(),
		root:      k.fs.Root(),
		fds:       make([]fdesc, 0, 8),
		umask:     0o022,
		children:  make(map[int]*Proc),
		comm:      "",
		startTime: time.Now(),
		wake:      make(chan struct{}, 1),
		exitDone:  make(chan struct{}),
	}
	for i := range p.rlimits {
		p.rlimits[i] = sys.Rlimit{Cur: sys.RLIM_INFINITY, Max: sys.RLIM_INFINITY}
	}
	p.rlimits[sys.RLIMIT_NOFILE] = sys.Rlimit{Cur: sys.OpenMax, Max: sys.OpenMax}
	p.plan.Store(emptyPlan)
	return p
}

// publishProc enters p into the process table, linking it to its parent
// (nil for host-created processes).
func (k *Kernel) publishProc(p *Proc, parent *Proc) {
	k.pmu.Lock()
	defer k.pmu.Unlock()
	if parent != nil {
		p.ppid = parent.pid
		p.pgrp = parent.pgrp
		parent.children[p.pid] = p
	}
	k.procs[p.pid] = p
}

// PID returns the process id. (sys.Ctx)
func (p *Proc) PID() int { return p.pid }

// PPID returns the parent process id.
func (p *Proc) PPID() int {
	p.k.pmu.Lock()
	defer p.k.pmu.Unlock()
	return p.ppid
}

// CopyIn implements sys.Ctx against the process's address space.
func (p *Proc) CopyIn(addr sys.Word, b []byte) sys.Errno { return p.as.CopyIn(addr, b) }

// CopyOut implements sys.Ctx against the process's address space.
func (p *Proc) CopyOut(addr sys.Word, b []byte) sys.Errno { return p.as.CopyOut(addr, b) }

// CopyInString implements sys.Ctx against the process's address space.
func (p *Proc) CopyInString(addr sys.Word, max int) (string, sys.Errno) {
	return p.as.CopyInString(addr, max)
}

// AS exposes the process's address space to the kernel and loaders.
func (p *Proc) AS() *mem.AS { return p.as }

// KProc lets the kernel recover the *Proc under a sys.Ctx (which may be a
// LayerCtx wrapper).
func (p *Proc) KProc() *Proc { return p }

// ctxProc extracts the *Proc behind any kernel-made sys.Ctx, or nil for
// a foreign context. Agent code can hand the kernel any sys.Ctx it
// likes; a context this kernel did not mint must fail the call, not
// panic the world.
func ctxProc(c sys.Ctx) *Proc {
	type kp interface{ KProc() *Proc }
	if p, ok := c.(kp); ok {
		return p.KProc()
	}
	return nil
}

// StageChild implements image.Proc.
func (p *Proc) StageChild(e image.Entry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stagedChild = e
}

// InitialSP implements image.Proc.
func (p *Proc) InitialSP() sys.Word {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.initialSP
}

// SetComm records the program name, as exec does (a machine-level
// operation used by toolkit execve reimplementations).
func (p *Proc) SetComm(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.comm = name
}

// SetInitialSP records the stack pointer established by an exec. It is a
// machine-level operation used by the kernel and by toolkit execve
// reimplementations.
func (p *Proc) SetInitialSP(sp sys.Word) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.initialSP = sp
}

// SetSignalDispatcher implements image.Proc.
func (p *Proc) SetSignalDispatcher(fn func(sig int, handler sys.Word)) {
	p.sigMu.Lock()
	defer p.sigMu.Unlock()
	p.sigDispatch = fn
}

// ResetAS clears the process's address space (execve primitive).
func (p *Proc) ResetAS() { p.as.Reset() }

// LookupImage resolves a registered image name (execve primitive, used by
// toolkit execve reimplementations).
func (p *Proc) LookupImage(name string) (image.Entry, bool) {
	return p.k.images.Lookup(name)
}

// Yield implements image.Proc: it delivers any pending signals, as a clock
// interrupt would.
func (p *Proc) Yield() { p.checkSignals() }

// PushEmulation installs an interposition layer above any existing layers.
// The layer sees the process's system calls (for registered numbers) before
// lower layers and the kernel; it sees signals after them. The dispatch
// plan is recompiled and published atomically: calls already in flight
// finish under the old plan, the next call sees the new stack. Pushing a
// layer onto a stack already MaxLayers deep panics.
func (p *Proc) PushEmulation(l *EmuLayer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.emu) >= MaxLayers {
		panic(fmt.Sprintf("kernel: pid %d: emulation stack is full (%d layers)", p.pid, MaxLayers))
	}
	p.emu = append(p.emu, l)
	p.recompilePlanLocked()
}

// RemoveEmulation detaches the topmost occurrence of layer l from the
// stack, reporting whether it was installed. Lower layers keep their
// positions; the recompiled plan takes effect at the next system call
// entry (in-flight calls finish under the plan they started with).
func (p *Proc) RemoveEmulation(l *EmuLayer) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.emu) - 1; i >= 0; i-- {
		if p.emu[i] == l {
			p.emu = append(p.emu[:i:i], p.emu[i+1:]...)
			p.recompilePlanLocked()
			return true
		}
	}
	return false
}

// Emulation returns the installed layers, bottom first.
func (p *Proc) Emulation() []*EmuLayer {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*EmuLayer, len(p.emu))
	copy(out, p.emu)
	return out
}

// LayerCtx is the per-call context handed to an emulation layer: the
// calling process, the plan the call entered under, and the layer's own
// position, so that Down can resume dispatch below it (the
// htg_unix_syscall analog). Carrying the plan keeps a call's view of the
// stack stable even if layers attach or detach while it runs.
type LayerCtx struct {
	*Proc
	plan  *dispatchPlan
	layer int
}

// Down invokes the next-lower instance of the system interface: lower
// interested layers, or the kernel. This is how an agent performs a system
// call that would otherwise be intercepted by itself.
func (lc LayerCtx) Down(num int, a sys.Args) (sys.Retval, sys.Errno) {
	return lc.Proc.dispatch(lc.plan, lc.layer, num, a)
}

// Syscall implements image.Proc: a system call from user mode. It enters
// the topmost interested instance of the system interface, then delivers
// any pending signals before returning to user code.
func (p *Proc) Syscall(num int, a sys.Args) (sys.Retval, sys.Errno) {
	addUint32(&p.nsyscalls, 1)
	// Agent scratch, attribution and span scratch are per-call (stale
	// after an exec unwind).
	p.emuCursor, p.telChild, p.curSpan = 0, 0, 0
	pl := p.plan.Load()
	if t, r := p.k.trc.Load(), p.k.tel.Load(); t != nil || r != nil {
		return p.syscallTraced(t, r, pl, num, a)
	}
	rv, err := p.dispatch(pl, len(pl.layers), num, a)
	p.checkSignals()
	return rv, err
}

// syscallTraced is the observed top half of Syscall, used whenever a span
// tracer (t) or a telemetry registry (r) is installed; either may be nil,
// and the two share one pair of clock reads. With a registry it times
// the call for the per-syscall histogram and appends a flight event;
// per-layer attribution happens frame by frame in dispatch. With a
// tracer, a head-sampled call opens a root span whose Parent is the
// pending causal edge (fork, exec, or signal delivery) and whose Link is
// filled by cross-process edges observed during dispatch (pipe read,
// reaped child); unsampled calls may still be retained by tail rules
// when slow or failed. When nothing needs a duration, the clock is never
// read. Calls that unwind instead of returning (exit, successful execve)
// are recorded at entry with unknown duration, and their span is left
// as the causal parent so the post-exec image's first call chains under
// it.
func (p *Proc) syscallTraced(t *trace.Tracer, r *telemetry.Registry, pl *dispatchPlan, num int, a sys.Args) (sys.Retval, sys.Errno) {
	unwinds := num == sys.SYS_exit || num == sys.SYS_execve
	if unwinds && r != nil {
		r.RecordEvent(p.pid, num, 0, -1)
	}
	sampled := t != nil && t.Sampled(&p.trcRand, p.pid)
	var span trace.Span
	if sampled {
		if p.traceID == 0 {
			p.traceID = t.NewTrace()
		}
		span = trace.Span{
			Trace:  p.traceID,
			ID:     t.NewSpanID(),
			Parent: p.causeSpan,
			PID:    int32(p.pid),
			Num:    int32(num),
			Layer:  trace.LayerRoot,
		}
		p.causeSpan = 0
		p.curSpan, p.spanParent, p.curLink = span.ID, span.ID, 0
		if unwinds {
			span.Start = t.Now()
			span.Dur = -1
			t.Record(span)
			p.causeSpan = span.ID
		}
	}
	needClock := r != nil || (sampled && !unwinds) || (t != nil && t.TailEnabled())
	var start time.Time
	if needClock {
		start = time.Now()
	}
	rv, err := p.dispatch(pl, len(pl.layers), num, a)
	var d time.Duration
	if needClock {
		d = time.Since(start)
	}
	if r != nil {
		r.RecordSyscall(num, d, err != sys.OK)
		if !unwinds {
			r.RecordEvent(p.pid, num, int32(err), d)
		}
	}
	if sampled {
		if unwinds {
			// Reaching here means execve failed and returned an errno: drop
			// the entry-recorded span as causal parent so later calls do not
			// chain under an exec that never happened.
			p.causeSpan = 0
		} else {
			span.Start = t.At(start)
			span.Dur = int64(d)
			span.Err = int32(err)
			span.Link = p.curLink
			t.Record(span)
		}
	} else if t != nil && !unwinds && t.Tail(d, err != sys.OK) {
		// Tail retention: a slow or failed call that head sampling skipped
		// is recorded as a root-only span.
		if p.traceID == 0 {
			p.traceID = t.NewTrace()
		}
		t.Record(trace.Span{
			Trace:  p.traceID,
			ID:     t.NewSpanID(),
			Parent: p.causeSpan,
			Link:   p.curLink,
			PID:    int32(p.pid),
			Num:    int32(num),
			Layer:  trace.LayerRoot,
			Err:    int32(err),
			Start:  t.At(start),
			Dur:    int64(d),
		})
		p.causeSpan = 0
	}
	p.curSpan, p.spanParent, p.curLink = 0, 0, 0
	p.checkSignals()
	return rv, err
}

// EmuAlloc reserves n bytes of the process's emulator segment for staging
// an agent downcall argument. The space is reclaimed automatically at the
// next top-level system call entry.
func (p *Proc) EmuAlloc(n int) (sys.Word, sys.Errno) {
	need := sys.Word((n + 7) &^ 7)
	if p.emuCursor+need > mem.EmuSize {
		return 0, sys.ENOMEM
	}
	addr := mem.EmuBase + p.emuCursor
	p.emuCursor += need
	return addr, sys.OK
}

// EmuMark returns the current emulator-segment allocation cursor, for
// bulk operations that stage and release in a loop within one call.
func (p *Proc) EmuMark() sys.Word { return p.emuCursor }

// EmuRelease rewinds the emulator-segment cursor to a prior mark.
func (p *Proc) EmuRelease(mark sys.Word) {
	if mark <= p.emuCursor {
		p.emuCursor = mark
	}
}

// EmuString stages s as a NUL-terminated string in the emulator segment.
func (p *Proc) EmuString(s string) (sys.Word, sys.Errno) {
	addr, err := p.EmuAlloc(len(s) + 1)
	if err != sys.OK {
		return 0, err
	}
	if e := p.as.CopyOut(addr, append([]byte(s), 0)); e != sys.OK {
		return 0, e
	}
	return addr, sys.OK
}

// EmuBytes stages b in the emulator segment.
func (p *Proc) EmuBytes(b []byte) (sys.Word, sys.Errno) {
	addr, err := p.EmuAlloc(len(b))
	if err != sys.OK {
		return 0, err
	}
	if e := p.as.CopyOut(addr, b); e != sys.OK {
		return 0, e
	}
	return addr, sys.OK
}

// dispatch runs the system call at the highest interested layer strictly
// below index `below` (layers are indexed bottom=0). The kernel is below
// layer 0. Uninterested layers are skipped entirely — interception is
// pay-per-use: with the precompiled interest bitmap, a call no layer
// registered for costs one array read before going straight to the
// kernel, regardless of stack depth.
func (p *Proc) dispatch(pl *dispatchPlan, below int, num int, a sys.Args) (sys.Retval, sys.Errno) {
	if below > 0 {
		if mask := pl.interestBelow(below, num); mask != 0 {
			i := topInterested(mask)
			if s := p.k.sup.Load(); s != nil {
				return s.call(p, pl, i, num, a)
			}
			return p.invokeLayer(pl, i, num, a)
		}
	}
	// Kernel-side fault injection sits below every emulation layer; while
	// disabled it costs only this atomic load.
	if b := p.k.inj.Load(); b != nil {
		var (
			rv      sys.Retval
			err     sys.Errno
			handled bool
		)
		if a, rv, err, handled = b.inj.Inject(p, num, a); handled {
			return rv, err
		}
	}
	if r := p.k.tel.Load(); r != nil || p.curSpan != 0 {
		return p.callTraced(r, pl, -1, num, a)
	}
	return p.k.Syscall(p, num, a)
}

// invokeLayer runs layer i's handler, adding telemetry attribution
// and/or a child span when either facility needs it; with both off it is
// a direct handler call. The supervisor's containment paths route
// through it too, so supervised upcalls get the same per-call
// attribution and spans as bare dispatch.
func (p *Proc) invokeLayer(pl *dispatchPlan, i, num int, a sys.Args) (sys.Retval, sys.Errno) {
	if r := p.k.tel.Load(); r != nil || p.curSpan != 0 {
		return p.callTraced(r, pl, i, num, a)
	}
	return pl.layers[i].Handler.Syscall(pl.ctxs[i], num, a)
}

// callTraced runs one instance of the system interface with
// instrumentation: layer i's handler, or the kernel's implementation
// when i is -1 (attribution slot and span layer 1+i either way). When a
// registry is installed (r may be nil) it attributes the instance's self
// time — wall time minus the time nested downcalls spent in lower
// instances (accumulated into p.telChild by the frames below this one;
// the kernel makes none). When the call in flight carries an open root
// span, it additionally opens a child span under the innermost open
// span, so nested Down chains render as nested intervals. If a panic
// travels through this frame — the exit/exec control-flow unwinds, or an
// agent bug headed for the supervisor above — the open span is recorded
// entry-style (Dur=-1) on the way out: downcalls that completed under it
// (the toolkit's exec emulation reads the image and closes descriptors
// before the final unwinding execve) already reference it as their
// parent and must not dangle, and the kernel leg shows where the call
// went. An exit span is recorded at entry instead: the kernel leg makes
// the process reapable before it unwinds, and a reaper that reads the
// ring must find every span of the process already there.
func (p *Proc) callTraced(r *telemetry.Registry, pl *dispatchPlan, i, num int, a sys.Args) (sys.Retval, sys.Errno) {
	var name string // the kernel's attribution slot is pre-named
	if i >= 0 {
		name = pl.layers[i].Name
	}
	var t *trace.Tracer
	var span trace.Span
	savedParent := p.spanParent
	if p.curSpan != 0 {
		if t = p.k.trc.Load(); t != nil {
			span = trace.Span{
				Trace:  p.traceID,
				ID:     t.NewSpanID(),
				Parent: p.spanParent,
				PID:    int32(p.pid),
				Num:    int32(num),
				Layer:  int32(1 + i),
				Name:   name,
			}
			p.spanParent = span.ID
		}
	}
	saved := p.telChild
	p.telChild = 0
	start := time.Now()
	exit := num == sys.SYS_exit
	if t != nil {
		if exit {
			span.Start = t.At(start)
			span.Dur = -1
			t.Record(span)
		} else {
			defer func() {
				if rec := recover(); rec != nil {
					span.Start = t.At(start)
					span.Dur = -1
					t.Record(span)
					panic(rec)
				}
			}()
		}
	}
	var rv sys.Retval
	var err sys.Errno
	if i < 0 {
		rv, err = p.k.Syscall(p, num, a)
	} else {
		rv, err = pl.layers[i].Handler.Syscall(pl.ctxs[i], num, a)
	}
	elapsed := time.Since(start)
	if r != nil {
		r.RecordLayer(1+i, name, max(elapsed-time.Duration(p.telChild), 0))
	}
	p.telChild = saved + int64(elapsed)
	if t != nil {
		p.spanParent = savedParent
		if !exit {
			span.Start = t.At(start)
			span.Dur = int64(elapsed)
			span.Err = int32(err)
			t.Record(span)
		}
	}
	return rv, err
}

// KernelSyscall invokes the kernel's implementation directly, bypassing
// every emulation layer. It is the lowest-level htg_unix_syscall analog.
func (p *Proc) KernelSyscall(num int, a sys.Args) (sys.Retval, sys.Errno) {
	return p.k.Syscall(p, num, a)
}

// Telemetry exposes the kernel's registry to agents through their call
// context (nil when telemetry is off).
func (p *Proc) Telemetry() *telemetry.Registry {
	return p.k.tel.Load()
}

// unwind values carried by panic to end or redirect a process goroutine.
type exitUnwind struct{ status sys.Word }
type execUnwind struct{ entry image.Entry }

// Exec transfers control to a new program image in this process. It does
// not return. (execve primitive: "transferring control into the loaded
// image".)
func (p *Proc) Exec(e image.Entry) {
	panic(execUnwind{entry: e})
}

// ExitNow terminates the process from kernel context. It does not return.
func (p *Proc) exitNow(status sys.Word) {
	p.k.finishExit(p, status, p.traceID, p.curSpan)
	panic(exitUnwind{status: status})
}

// Start loads the image at path into the process and starts its goroutine.
// It mirrors execve's loading steps but runs from outside the process.
func (p *Proc) Start(path string, argv, envp []string) error {
	entry, err := p.k.execLoad(p, path, argv, envp)
	if err != sys.OK {
		return fmt.Errorf("start %s: %w", path, err)
	}
	p.started.Store(true)
	go p.run(entry)
	return nil
}

// run is the process goroutine: it executes entry, handling the exec and
// exit unwinds, and runs any emulation-layer child hooks first if this is
// a fresh fork child.
func (p *Proc) run(entry image.Entry) {
	if p.plan.Load().intercepts(sys.SYS_execve) {
		presizeStack(0)
	}
	for {
		next, status := p.runOnce(entry)
		if next == nil {
			_ = status
			return
		}
		entry = next
	}
}

// stackReserve is the frame presizeStack spends. A frame this size does
// not fit an 8 KB stack, so the one growth lands on a 16 KB stack or
// more, which holds the whole agent path; in CPU profiles of
// agent-stacked builds, 6 to 16 KB frames all took stack growth off that
// path, and 4 KB did not.
const stackReserve = 8 << 10

// presizeStack grows the calling goroutine's stack once, to fit a frame
// of stackReserve bytes, and returns. Processes are goroutines, which
// start on a small stack. Under an agent stack, a process's calls run
// about twenty frames deep: libc, dispatch, the agent, the toolkit's
// execve, Down, the kernel, and VFS lookup. Reaching that depth from a
// small stack makes the runtime grow the stack several times, and each
// growth copies and re-adjusts every frame already on it. In a fresh
// process that cost was a tenth of the CPU of an agent-stacked build.
// Called first thing in the goroutine, the one growth copies an almost
// empty stack. run calls it only when a layer intercepts execve, so that
// the process's execve is the toolkit's, rebuilt from downcalls, and its
// other calls go through that agent too. A bare process, or one under an
// agent that intercepts a few shallow calls (timex), never goes that
// deep, and the reserve would cost it.
// The frame is read at index i, which run passes as 0, so the compiler
// cannot fold the frame away.
//
//go:noinline
func presizeStack(i int) byte {
	var frame [stackReserve]byte
	return frame[i]
}

// runOnce executes entry until it exits, execs, or returns.
func (p *Proc) runOnce(entry image.Entry) (next image.Entry, status sys.Word) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case exitUnwind:
			next, status = nil, r.status
		case execUnwind:
			next, status = r.entry, 0
		default:
			// A bug in a program or agent: report and kill the process the
			// way a machine exception would.
			p.k.console.write([]byte(fmt.Sprintf("panic in pid %d (%s): %v\n", p.pid, p.comm, r)))
			p.k.finishExit(p, sys.WStatusSignal(sys.SIGSEGV), p.traceID, p.curSpan)
			next, status = nil, sys.WStatusSignal(sys.SIGSEGV)
		}
	}()
	p.runChildInits()
	entry(p)
	// Entry returned without _exit: treat as exit(0), as crt0 would.
	rv := sys.Args{0}
	p.Syscall(sys.SYS_exit, rv)
	return nil, 0
}

// runChildInits invokes InitChild hooks staged by fork.
func (p *Proc) runChildInits() {
	p.mu.Lock()
	pending := p.pendingChildInit
	p.pendingChildInit = false
	p.mu.Unlock()
	if !pending {
		return
	}
	pl := p.plan.Load()
	for i, l := range pl.layers {
		if ci, ok := l.Handler.(ChildIniter); ok {
			ci.InitChild(pl.ctxs[i])
		}
	}
}

// addUint32 bumps a counter without the big lock.
func addUint32(p *uint32, v uint32) { addUint32Atomic(p, v) }

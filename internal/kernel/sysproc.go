package kernel

import (
	"strings"
	"time"

	"interpose/internal/image"
	"interpose/internal/mem"
	"interpose/internal/sys"
)

func (k *Kernel) sysExit(p *Proc, a sys.Args) {
	status := sys.WStatusExit(int(a[0]))
	k.trace(p, "exit", "", "", int(a[0]), sys.OK)
	p.exitNow(status) // does not return
}

// finishExit turns p into a zombie: closes descriptors, reparents children,
// and notifies the parent. The p.finished CAS elects exactly one
// finisher — later or concurrent calls are no-ops — because the caller
// is not always the process's own goroutine: host-side Shutdown exits a
// process whose Start it raced, and the eventual exit of that process's
// goroutine must not run teardown a second time (WaitExit still
// synchronizes on exitDone, which only the winner closes). It runs in
// three phases so descriptor teardown — which takes per-object pipe and
// flock locks and wakes peers — happens outside the process-table lock.
// traceID and span are the process's trace and the root span of its exit
// call, for the wait causal edge: its own goroutine passes its span
// scratch, and a host-side caller, whose process never ran, passes zeros
// rather than read fields a racing Start's goroutine may be writing.
func (k *Kernel) finishExit(p *Proc, status sys.Word, traceID, span uint64) {
	if !p.finished.CompareAndSwap(false, true) {
		return
	}
	k.pmu.Lock()
	if st := p.loadState(); st == procZombie || st == procDead {
		k.pmu.Unlock()
		return
	}
	k.stopITimerLocked(p)
	k.pmu.Unlock()

	// Phase 2: teardown that takes narrower locks. The CAS above means
	// only one goroutine reaches here, so there is no double-run hazard
	// in the window before the state flips to zombie below.
	p.fdMu.Lock()
	for fd := range p.fds {
		if p.fds[fd].file != nil {
			p.closeFDLocked(fd)
		}
	}
	p.fdMu.Unlock()

	// Let stateful emulation layers drop their per-process records.
	for _, l := range p.Emulation() {
		if pe, ok := l.Handler.(ProcExiter); ok {
			pe.ProcExit(p.pid)
		}
	}

	// Return the address space's pages for reuse, keeping the resident
	// count for rusage. A killed process may run on until its next
	// system call; any page it touches after this is a fresh zero page
	// the garbage collector reclaims.
	p.exitPages = p.as.Pages()
	p.as.Release()

	k.pmu.Lock()
	// Reparent live children to pid 1; orphaned zombies are reaped now.
	init := k.procs[1]
	adopted := false
	for pid, child := range p.children {
		delete(p.children, pid)
		if init != nil && init != p && init.loadState() == procRunning {
			child.ppid = 1
			init.children[pid] = child
			adopted = true
		} else {
			child.ppid = 0
			if child.loadState() == procZombie {
				child.setStateLocked(procDead)
				delete(k.procs, pid)
			}
		}
	}
	// Publish the exit call's root span for the wait causal edge before
	// the zombie transition makes the process reapable. Holding k.pmu
	// here is what makes the copy visible to the reaping parent, which
	// reads exitSpan under k.pmu.
	p.exitSpan = span
	p.exitStatus = status
	p.setStateLocked(procZombie)
	p.sigMu.Lock()
	p.refreshAttnLocked()
	p.sigMu.Unlock()
	if adopted {
		// Init may be sleeping in wait4; its new children need a wakeup.
		init.childQ.wakeAll()
	}
	if parent, ok := k.procs[p.ppid]; ok && p.ppid != 0 {
		noteSigCause(parent, traceID, span)
		k.postSignalPLocked(parent, sys.SIGCHLD)
		parent.childQ.wakeAll()
	}
	close(p.exitDone) // host-side WaitExit callers unblock here
	k.pmu.Unlock()
}

// rusageSelf computes the process's own resource usage. All inputs are
// atomics, immutable fields, self-locking (the address space), or
// published before the atomic zombie transition (exitPages), so no kernel
// lock is needed.
func (p *Proc) rusageSelf() sys.Rusage {
	elapsed := time.Since(p.startTime)
	pages := p.exitPages
	if p.loadState() < procZombie {
		pages = p.as.Pages()
	}
	return sys.Rusage{
		Utime:    durTimeval(elapsed),
		Stime:    sys.Timeval{},
		Maxrss:   uint32(pages * sys.PageSize / 1024),
		Nsyscall: loadUint32(&p.nsyscalls),
	}
}

func durTimeval(d time.Duration) sys.Timeval {
	return sys.Timeval{Sec: uint32(d / time.Second), Usec: uint32(d % time.Second / time.Microsecond)}
}

func addRusage(dst *sys.Rusage, src sys.Rusage) {
	usec := uint64(dst.Utime.Usec) + uint64(src.Utime.Usec)
	dst.Utime.Sec += src.Utime.Sec + uint32(usec/1e6)
	dst.Utime.Usec = uint32(usec % 1e6)
	dst.Maxrss = maxU32(dst.Maxrss, src.Maxrss)
	dst.Nsyscall += src.Nsyscall
	dst.Nsignals += src.Nsignals
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func (k *Kernel) sysFork(p *Proc) (sys.Retval, sys.Errno) {
	p.mu.Lock()
	entry := p.stagedChild
	p.stagedChild = nil
	p.mu.Unlock()
	if entry == nil {
		// No staged child continuation: the simulated machine cannot
		// snapshot a program counter, so fork without one is a fault.
		return sys.Retval{}, sys.EAGAIN
	}
	// Build the child fully before publishing it: once it is in the
	// process table a concurrent kill or wait4 may touch it, so no field
	// may still be half-copied at that point.
	child := k.newProc(k.allocPID(), p.as.Clone())
	p.fdMu.Lock()
	child.fds = append(child.fds, p.fds...)
	for _, d := range child.fds {
		if d.file != nil {
			d.file.ref()
		}
	}
	p.fdMu.Unlock()
	p.mu.Lock()
	child.cwd = p.cwd
	child.root = p.root
	child.uid, child.euid = p.uid, p.euid
	child.gid, child.egid = p.gid, p.egid
	child.groups = append([]uint32(nil), p.groups...)
	child.umask = p.umask
	child.rlimits = p.rlimits
	child.comm = p.comm
	child.initialSP = p.initialSP
	p.mu.Unlock()
	p.sigMu.Lock()
	child.sigMask = p.sigMask
	child.sigHandlers = p.sigHandlers
	child.sigDispatch = p.sigDispatch
	p.sigMu.Unlock()
	p.mu.Lock()
	child.emu = append([]*EmuLayer(nil), p.emu...)
	p.mu.Unlock()
	child.plan.Store(compilePlan(child, child.emu))
	child.pendingChildInit = len(child.emu) > 0
	// Causal tracing: the child joins the parent's trace and its first
	// sampled span parents to the fork span. This runs on the parent's
	// goroutine before publishProc, so the copy races with nothing.
	child.traceID = p.traceID
	child.causeSpan = p.curSpan
	k.publishProc(child, p)
	k.trace(p, "fork", "", "", child.pid, sys.OK)
	child.started.Store(true)
	go child.run(entry)
	return sys.Retval{sys.Word(child.pid)}, sys.OK
}

func (k *Kernel) sysWait4(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	sel := int(int32(a[0]))
	statusAddr, options, ruAddr := a[1], int(a[2]), a[3]
	k.pmu.Lock()
	defer k.pmu.Unlock()
	for {
		matched := false
		for pid, child := range p.children {
			switch {
			case sel == -1, sel == pid,
				sel == 0 && child.pgrp == p.pgrp,
				sel < -1 && child.pgrp == -sel:
			default:
				continue
			}
			matched = true
			if child.loadState() != procZombie {
				continue
			}
			// Reap.
			delete(p.children, pid)
			delete(k.procs, pid)
			child.setStateLocked(procDead)
			// Causal tracing: link this wait span to the child's exit span
			// (written in finishExit; the shared k.pmu carries it here).
			if child.exitSpan != 0 && p.curSpan != 0 {
				p.curLink = child.exitSpan
			}
			ru := child.rusageSelf()
			addRusage(&ru, child.childrenRu)
			addRusage(&p.childrenRu, ru)
			if statusAddr != 0 {
				var b [4]byte
				st := child.exitStatus
				b[0], b[1], b[2], b[3] = byte(st), byte(st>>8), byte(st>>16), byte(st>>24)
				if e := p.CopyOut(statusAddr, b[:]); e != sys.OK {
					return sys.Retval{}, e
				}
			}
			if ruAddr != 0 {
				var b [sys.RusageSize]byte
				ru.Encode(b[:])
				if e := p.CopyOut(ruAddr, b[:]); e != sys.OK {
					return sys.Retval{}, e
				}
			}
			return sys.Retval{sys.Word(pid)}, sys.OK
		}
		if !matched {
			return sys.Retval{}, sys.ECHILD
		}
		if options&sys.WNOHANG != 0 {
			return sys.Retval{sys.Word(0)}, sys.OK
		}
		// Sleep on this process's own child queue; exiting children wake
		// it (finishExit), as does any posted signal.
		if e := p.sleepOn(&p.childQ, &k.pmu); e != sys.OK {
			return sys.Retval{}, e
		}
	}
}

// decodeStringVec reads a NULL-terminated vector of string pointers.
func decodeStringVec(p *Proc, addr sys.Word) ([]string, sys.Errno) {
	if addr == 0 {
		return nil, sys.OK
	}
	var out []string
	total := 0
	for i := 0; ; i++ {
		if i > 1024 {
			return nil, sys.E2BIG
		}
		ptr, e := p.as.Word32(addr + sys.Word(4*i))
		if e != sys.OK {
			return nil, e
		}
		if ptr == 0 {
			return out, sys.OK
		}
		s, e := p.CopyInString(ptr, sys.ArgMax)
		if e != sys.OK {
			return nil, e
		}
		total += len(s) + 1
		if total > sys.ArgMax {
			return nil, sys.E2BIG
		}
		out = append(out, s)
	}
}

func (k *Kernel) sysExecve(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	path, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	argv, err := decodeStringVec(p, a[1])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	envp, err := decodeStringVec(p, a[2])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	entry, err := k.execLoad(p, path, argv, envp)
	k.trace(p, "execve", path, "", -1, err)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	p.Exec(entry) // does not return
	// Invariant: Exec always unwinds by panic (execUnwind); reaching here
	// would mean the unwind machinery itself is broken.
	panic("unreachable")
}

// execLoad performs every step of execve except transferring control:
// resolve and read the image (following "#!" interpreters), apply set-id
// bits, close close-on-exec descriptors, reset caught signal handlers,
// clear the address space, and build the new argument stack.
func (k *Kernel) execLoad(p *Proc, path string, argv, envp []string) (image.Entry, sys.Errno) {
	var entry image.Entry
	var imgUID, imgGID uint32
	var imgMode uint32
	cred := p.cred()

	for depth := 0; ; depth++ {
		if depth > 4 {
			return nil, sys.ENOEXEC
		}
		ip, err := k.namei(p, path, true)
		if err != sys.OK {
			return nil, err
		}
		st := ip.Stat()
		if !st.IsReg() {
			return nil, sys.EACCES
		}
		if e := k.fs.Access(ip, sys.X_OK, cred); e != sys.OK {
			return nil, e
		}
		ep := k.exec.parse(ip)
		switch ep.kind {
		case execImage:
			e, found := k.images.Lookup(ep.name)
			if !found {
				return nil, sys.ENOEXEC
			}
			entry = e
			imgUID, imgGID, imgMode = st.UID, st.GID, st.Mode
			if len(argv) == 0 {
				argv = []string{path}
			}
		case execInterp:
			newArgv := []string{ep.interp}
			if ep.arg != "" {
				newArgv = append(newArgv, ep.arg)
			}
			newArgv = append(newArgv, path)
			if len(argv) > 1 {
				newArgv = append(newArgv, argv[1:]...)
			}
			argv = newArgv
			path = ep.interp
			continue
		default:
			return nil, sys.ENOEXEC
		}
		break
	}

	// Set-id bits change the effective credentials.
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	p.mu.Lock()
	if imgMode&sys.S_ISUID != 0 {
		p.euid = imgUID
	}
	if imgMode&sys.S_ISGID != 0 {
		p.egid = imgGID
	}
	p.stagedChild = nil
	p.comm = base
	p.mu.Unlock()
	// Close close-on-exec descriptors.
	p.fdMu.Lock()
	for fd := range p.fds {
		if p.fds[fd].file != nil && p.fds[fd].cloexec {
			p.closeFDLocked(fd)
		}
	}
	p.fdMu.Unlock()
	// Caught signals revert to default; ignored/default dispositions keep.
	p.sigMu.Lock()
	for s := 1; s < sys.NSIG; s++ {
		if h := p.sigHandlers[s].Handler; h != sys.SIG_DFL && h != sys.SIG_IGN {
			p.sigHandlers[s] = sys.Sigvec{Handler: sys.SIG_DFL}
		}
	}
	p.sigDispatch = nil
	p.sigMu.Unlock()

	// Replace the address space and build the new stack.
	p.as.Reset()
	sp, errno := image.SetupStack(p, argv, envp)
	if errno != sys.OK {
		// The old image is gone; this is fatal, as on a real system where
		// the stack cannot be built.
		p.exitNow(sys.WStatusSignal(sys.SIGKILL))
	}
	p.SetInitialSP(sp)
	return entry, sys.OK
}

// NewProc allocates a fresh process with no parent, for host-side spawning.
func (k *Kernel) NewProc() *Proc {
	p := k.newProc(k.allocPID(), mem.NewAS())
	k.publishProc(p, nil)
	return p
}

// OpenConsole wires descriptors 0, 1 and 2 of p to /dev/console.
func (p *Proc) OpenConsole() error {
	ip, err := p.k.fs.Lookup(p.k.fs.Root(), "/dev/console", rootCred, true)
	if err != sys.OK {
		return err
	}
	p.fdMu.Lock()
	defer p.fdMu.Unlock()
	for fd := 0; fd < 3; fd++ {
		if fd >= len(p.fds) || p.fds[fd].file == nil {
			f := &File{ip: ip, flags: sys.O_RDWR}
			p.installFDLocked(fd, f, false)
		}
	}
	return nil
}

// SetCreds sets the process's identity (host-side world building).
func (p *Proc) SetCreds(uid, gid uint32, groups ...uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.uid, p.euid = uid, uid
	p.gid, p.egid = gid, gid
	p.groups = groups
}

// Chdir sets the working directory (host-side world building).
func (p *Proc) Chdir(path string) error {
	ip, err := p.k.fs.Lookup(p.k.fs.Root(), path, rootCred, true)
	if err != sys.OK {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cwd = ip
	return nil
}

// Spawn creates a process running the image at path with the given
// arguments, its standard descriptors on the console. The returned process
// has already started; on error no process is left in the table.
func (k *Kernel) Spawn(path string, argv, envp []string) (*Proc, error) {
	p := k.NewProc()
	if err := p.OpenConsole(); err != nil {
		k.Discard(p)
		return nil, err
	}
	if err := p.Start(path, argv, envp); err != nil {
		k.Discard(p)
		return nil, err
	}
	return p, nil
}

// WaitExit blocks until p terminates and reaps it, returning the wait
// status. Intended for host-side callers that spawned p; processes inside
// the system use wait4. The wait itself is on the process's exit-done
// channel — the host caller is not a process and cannot park on a wait
// queue.
func (k *Kernel) WaitExit(p *Proc) sys.Word {
	<-p.exitDone
	k.pmu.Lock()
	defer k.pmu.Unlock()
	status := p.exitStatus
	if p.loadState() == procZombie {
		p.setStateLocked(procDead)
		delete(k.procs, p.pid)
		if parent, ok := k.procs[p.ppid]; ok {
			delete(parent.children, p.pid)
		}
	}
	return status
}

// Discard exits and reaps a process that NewProc published but whose
// host-side launch then failed (console wiring, rlimit setup, or image
// load): nothing will ever run it, so the caller retires it directly.
// Without this, every failed launch would leave a process and its
// address space in the table until Shutdown — unbounded growth in a
// long-lived multi-tenant kernel.
func (k *Kernel) Discard(p *Proc) {
	k.finishExit(p, sys.WStatusSignal(sys.SIGKILL), 0, 0)
	k.WaitExit(p)
}

// Shutdown kills and reaps every live process: each gets an unmaskable
// SIGKILL (waking any kernel sleep, per the no-re-block-on-exit
// guarantee), and the caller then waits for every process goroutine to
// exit and removes it from the table. After Shutdown returns the world
// runs no goroutines and holds no zombies — it is quiesced, ready to be
// checkpointed or discarded. This is the teardown half of the world
// lifecycle layer (internal/world); a multi-tenant server calls it on
// every world it closes, so it must not leak even when guests are
// mid-syscall or blocked in sleeps.
//
// Signals are re-posted each round because a fork racing with the first
// round can publish a new child after the table was swept; the loop
// terminates because a killed process cannot fork again and every round
// reaps at least one process.
func (k *Kernel) Shutdown() {
	for {
		k.pmu.Lock()
		var victim *Proc
		for _, p := range k.procs {
			victim = p
			k.postSignalPLocked(p, sys.SIGKILL)
		}
		k.pmu.Unlock()
		if victim == nil {
			return
		}
		if !victim.started.Load() {
			// A host-driven process with no goroutine (NewProc without
			// Start, or a Start that failed to load): nothing will ever
			// deliver the signal, so shutdown performs its exit directly.
			// A Start racing this check is benign: finishExit's CAS
			// elects one finisher, and the late goroutine's own exit
			// becomes the no-op side.
			k.finishExit(victim, sys.WStatusSignal(sys.SIGKILL), 0, 0)
		}
		k.WaitExit(victim)
	}
}

// ProcCount returns the number of live (non-reaped) processes.
func (k *Kernel) ProcCount() int {
	k.pmu.Lock()
	defer k.pmu.Unlock()
	return len(k.procs)
}

package core

import (
	"fmt"
	"strings"

	"interpose/internal/image"
	"interpose/internal/kernel"
	"interpose/internal/sys"
)

// Agent is a complete, installable interposition agent: an instance of the
// system interface (sys.Handler) that also reports the system calls and
// signals it wants intercepted. Concrete agents embed one of the toolkit
// layer bases (Numeric, Symbolic, DescriptorSet, PathnameSet), which
// provide the bookkeeping half of this interface.
type Agent interface {
	sys.Handler
	// Interests returns a copy of the agent's registered interest set:
	// the one Install hands to the kernel's emulation layer.
	Interests() sys.Interest
}

// Downer is the downcall capability of an agent's call context: invoking
// the next-lower instance of the system interface even for numbers the
// agent itself intercepts — the htg_unix_syscall analog. The kernel's
// per-layer contexts implement it.
type Downer interface {
	Down(num int, a sys.Args) (sys.Retval, sys.Errno)
}

// Down invokes the next-lower instance of the system interface below the
// agent owning ctx.
func Down(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
	d, ok := c.(Downer)
	if !ok {
		return sys.Retval{}, sys.ENOSYS
	}
	return d.Down(num, a)
}

// emuStager is the agent-scratch capability of a call context: staging
// bytes in the client's address space (agents logically live there).
type emuStager interface {
	EmuString(s string) (sys.Word, sys.Errno)
	EmuBytes(b []byte) (sys.Word, sys.Errno)
	EmuAlloc(n int) (sys.Word, sys.Errno)
}

// StageString places s in the client's address space for the duration of
// the current system call, returning its address.
func StageString(c sys.Ctx, s string) (sys.Word, sys.Errno) {
	es, ok := c.(emuStager)
	if !ok {
		return 0, sys.ENOSYS
	}
	return es.EmuString(s)
}

// StageBytes places b in the client's address space for the duration of
// the current system call.
func StageBytes(c sys.Ctx, b []byte) (sys.Word, sys.Errno) {
	es, ok := c.(emuStager)
	if !ok {
		return 0, sys.ENOSYS
	}
	return es.EmuBytes(b)
}

// StageAlloc reserves n bytes in the client's address space for the
// duration of the current system call (for downcall out-parameters).
func StageAlloc(c sys.Ctx, n int) (sys.Word, sys.Errno) {
	es, ok := c.(emuStager)
	if !ok {
		return 0, sys.ENOSYS
	}
	return es.EmuAlloc(n)
}

// stageMarker is the bulk save/restore capability of the agent scratch
// area, for loops that stage many buffers within one system call.
type stageMarker interface {
	EmuMark() sys.Word
	EmuRelease(mark sys.Word)
}

// StageMark saves the scratch allocation point.
func StageMark(c sys.Ctx) sys.Word {
	if m, ok := c.(stageMarker); ok {
		return m.EmuMark()
	}
	return 0
}

// StageRelease rewinds scratch allocation to a saved point.
func StageRelease(c sys.Ctx, mark sys.Word) {
	if m, ok := c.(stageMarker); ok {
		m.EmuRelease(mark)
	}
}

// DownPath performs a downcall whose first argument is a pathname string,
// staging the (possibly agent-rewritten) path in the client's address
// space first.
func DownPath(c sys.Ctx, num int, path string, rest ...sys.Word) (sys.Retval, sys.Errno) {
	addr, err := StageString(c, path)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	a := sys.Args{addr}
	copy(a[1:], rest)
	return Down(c, num, a)
}

// DownPath2 performs a downcall with pathname strings in the first two
// argument positions (link, rename, symlink).
func DownPath2(c sys.Ctx, num int, p1, p2 string, rest ...sys.Word) (sys.Retval, sys.Errno) {
	a1, err := StageString(c, p1)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	a2, err := StageString(c, p2)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	a := sys.Args{a1, a2}
	copy(a[2:], rest)
	return Down(c, num, a)
}

// DownWrite writes b to descriptor fd of the client through a downcall,
// staging the bytes in the client's address space first. Agents use it to
// emit output (trace logs, reports) as real write system calls — the cost
// the paper attributes to the trace agent.
func DownWrite(c sys.Ctx, fd int, b []byte) sys.Errno {
	if len(b) == 0 {
		return sys.OK
	}
	addr, err := StageBytes(c, b)
	if err != sys.OK {
		return err
	}
	remaining := sys.Word(len(b))
	for remaining > 0 {
		rv, err := Down(c, sys.SYS_write, sys.Args{sys.Word(fd), addr, remaining})
		if err != sys.OK {
			return err
		}
		addr += rv[0]
		remaining -= rv[0]
	}
	return sys.OK
}

// Install attaches an agent to a process as its topmost emulation layer.
// The agent sees the process's registered system calls before lower
// layers and the kernel, and its registered signals after them. The layer
// is inherited by the process's future children. The returned layer
// handle can be passed to kernel.Proc.RemoveEmulation (or the agent
// itself to Uninstall) to detach it again. The layer gets a copy of the
// agent's interest set, so interest the agent registers afterwards does
// not reach this process.
func Install(p *kernel.Proc, a Agent) *kernel.EmuLayer {
	layer := &kernel.EmuLayer{Handler: a, Name: agentName(a), Interest: a.Interests()}
	layer.Signals, _ = a.(sys.SignalInterposer)
	p.PushEmulation(layer)
	return layer
}

// Uninstall detaches the topmost layer running agent a from p, reporting
// whether one was installed. The process's dispatch plan is recompiled
// atomically: the next system call entry no longer consults the agent,
// and calls for numbers only a intercepted return to the uninterposed
// fast path.
func Uninstall(p *kernel.Proc, a Agent) bool {
	layers := p.Emulation()
	for i := len(layers) - 1; i >= 0; i-- {
		if layers[i].Handler == sys.Handler(a) {
			return p.RemoveEmulation(layers[i])
		}
	}
	return false
}

// agentName derives the short name telemetry uses to label an agent's
// layer: the agent's own AgentName when it provides one, otherwise the
// package name of its concrete type (e.g. *trace.Agent -> "trace").
func agentName(a Agent) string {
	if n, ok := a.(interface{ AgentName() string }); ok {
		return n.AgentName()
	}
	t := strings.TrimPrefix(fmt.Sprintf("%T", a), "*")
	if i := strings.IndexByte(t, '.'); i >= 0 {
		t = t[:i]
	}
	return t
}

// Launch is the general agent loader: it creates a process whose standard
// descriptors are on the console, installs the given agents bottom-up
// (the first agent listed is closest to the kernel), and starts the
// program image at path. This is the toolkit analog of the paper's agent
// loader program. On error no process is left in the table.
func Launch(k *kernel.Kernel, agents []Agent, path string, argv, envp []string) (*kernel.Proc, error) {
	p := k.NewProc()
	if err := p.OpenConsole(); err != nil {
		k.Discard(p)
		return nil, fmt.Errorf("core: launch: console: %w", err)
	}
	for _, a := range agents {
		Install(p, a)
	}
	if err := p.Start(path, argv, envp); err != nil {
		k.Discard(p)
		return nil, fmt.Errorf("core: launch: %w", err)
	}
	return p, nil
}

// Run launches a program under agents and waits for it, returning its wait
// status and the console output produced during the run.
func Run(k *kernel.Kernel, agents []Agent, path string, argv, envp []string) (sys.Word, string, error) {
	k.Console().TakeOutput()
	p, err := Launch(k, agents, path, argv, envp)
	if err != nil {
		return 0, "", err
	}
	status := k.WaitExit(p)
	return status, k.Console().TakeOutput(), nil
}

// execProc is the machine-level capability set needed by the toolkit's
// execve reimplementation.
type execProc interface {
	Downer
	emuStager
	ResetAS()
	Exec(entry image.Entry)
	SetInitialSP(sp sys.Word)
	SetComm(name string)
	LookupImage(name string) (image.Entry, bool)
	sys.Ctx
}

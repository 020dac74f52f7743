package core_test

import (
	"testing"

	"interpose/internal/core"
	"interpose/internal/image"
	"interpose/internal/kernel"
	"interpose/internal/libc"
	"interpose/internal/sys"
)

// hostProc makes a process suitable for host-driven toolkit tests.
func hostProc(t *testing.T) (*kernel.Kernel, *kernel.Proc) {
	t.Helper()
	k := kernel.New(image.NewRegistry())
	p := k.NewProc()
	if err := p.OpenConsole(); err != nil {
		t.Fatal(err)
	}
	return k, p
}

func TestDownBypassesOwnLayer(t *testing.T) {
	// A layer that rewrites getpid to 999 — but its own downcalls reach
	// the kernel's real implementation.
	_, p := hostProc(t)
	rewriter := sys.HandlerFunc(func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
		rv, err := core.Down(c, num, a)
		if err == sys.OK {
			rv[0] = 999
		}
		return rv, err
	})
	layer := kernel.NewEmuLayer(rewriter)
	layer.RegisterInterest(sys.SYS_getpid)
	p.PushEmulation(layer)

	rv, err := p.Syscall(sys.SYS_getpid, sys.Args{})
	if err != sys.OK || rv[0] != 999 {
		t.Fatalf("rewritten getpid = %d, %v", rv[0], err)
	}
	// KernelSyscall bypasses every layer.
	rv, err = p.KernelSyscall(sys.SYS_getpid, sys.Args{})
	if err != sys.OK || rv[0] == 999 {
		t.Fatalf("kernel getpid = %d, %v", rv[0], err)
	}
}

func TestPayPerUseSkipsLayer(t *testing.T) {
	_, p := hostProc(t)
	touched := 0
	spy := sys.HandlerFunc(func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
		touched++
		return core.Down(c, num, a)
	})
	layer := kernel.NewEmuLayer(spy)
	layer.RegisterInterest(sys.SYS_getuid)
	p.PushEmulation(layer)

	p.Syscall(sys.SYS_getpid, sys.Args{}) // not registered
	if touched != 0 {
		t.Fatal("uninstrumented call hit the layer")
	}
	p.Syscall(sys.SYS_getuid, sys.Args{}) // registered
	if touched != 1 {
		t.Fatal("instrumented call missed the layer")
	}
}

func TestStagingMarkRelease(t *testing.T) {
	_, p := hostProc(t)
	var inside sys.Ctx
	grab := sys.HandlerFunc(func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
		inside = c
		mark := core.StageMark(c)
		a1, err := core.StageString(c, "hello")
		if err != sys.OK {
			t.Errorf("stage: %v", err)
		}
		a2, _ := core.StageString(c, "world")
		if a1 == a2 {
			t.Error("staging reused live space")
		}
		s, _ := c.CopyInString(a1, 100)
		if s != "hello" {
			t.Errorf("staged = %q", s)
		}
		core.StageRelease(c, mark)
		a3, _ := core.StageString(c, "reuse")
		if a3 != a1 {
			t.Error("release did not rewind the cursor")
		}
		return core.Down(c, num, a)
	})
	layer := kernel.NewEmuLayer(grab)
	layer.RegisterInterest(sys.SYS_getpid)
	p.PushEmulation(layer)
	p.Syscall(sys.SYS_getpid, sys.Args{})
	if inside == nil {
		t.Fatal("layer never ran")
	}
}

func TestStagingResetsPerSyscall(t *testing.T) {
	_, p := hostProc(t)
	var first, second sys.Word
	n := 0
	grab := sys.HandlerFunc(func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
		addr, _ := core.StageString(c, "x")
		if n == 0 {
			first = addr
		} else {
			second = addr
		}
		n++
		return core.Down(c, num, a)
	})
	layer := kernel.NewEmuLayer(grab)
	layer.RegisterInterest(sys.SYS_getpid)
	p.PushEmulation(layer)
	p.Syscall(sys.SYS_getpid, sys.Args{})
	p.Syscall(sys.SYS_getpid, sys.Args{})
	if first == 0 || first != second {
		t.Fatalf("scratch not reset per call: %#x vs %#x", first, second)
	}
}

func TestOpenObjectRefcount(t *testing.T) {
	released := 0
	oo := core.NewBaseOpenObject(3)
	oo.OnRelease = func(sys.Ctx) { released++ }
	oo.Ref()
	oo.Ref()
	if oo.Refs() != 3 {
		t.Fatalf("refs = %d", oo.Refs())
	}
	oo.Unref(nil)
	oo.Unref(nil)
	if released != 0 {
		t.Fatal("released early")
	}
	oo.Unref(nil)
	if released != 1 {
		t.Fatal("final unref did not release")
	}
}

func TestDescriptorMirrorAcrossDupAndClose(t *testing.T) {
	// An agent attaches an object to an fd; dup aliases it, close drops
	// one reference, the last close releases.
	kk := fddanceWorld(t)
	// Buffered generously: the program's setup write also opens the file.
	released := make(chan int, 8)

	agent := &mirrorAgent{released: released}
	agent.BindPathnames(agent)
	agent.RegisterPathCalls()
	agent.RegisterDescriptorCalls()

	st, out, err := core.Run(kk, []core.Agent{agent}, "/bin/fddance", []string{"fddance"}, nil)
	if err != nil || sys.WExitStatus(st) != 0 {
		t.Fatalf("%v %#x %q", err, st, out)
	}
	select {
	case <-released:
	default:
		t.Fatal("object never released")
	}
}

// mirrorAgent wraps opens of /tmp/mirror in a counting object.
type mirrorAgent struct {
	core.PathnameSet
	released chan int
}

func (a *mirrorAgent) GetPN(c sys.Ctx, path string, op core.PathOp) (core.Pathname, sys.Errno) {
	if path == "/tmp/mirror" {
		return &mirrorPathname{BasePathname: core.BasePathname{P: path}, a: a}, sys.OK
	}
	return a.PathnameSet.GetPN(c, path, op)
}

type mirrorPathname struct {
	core.BasePathname
	a *mirrorAgent
}

func (p *mirrorPathname) Open(c sys.Ctx, flags int, mode uint32) (sys.Retval, core.OpenObject, sys.Errno) {
	rv, _, err := p.BasePathname.Open(c, flags, mode)
	if err != sys.OK {
		return rv, nil, err
	}
	oo := core.NewBaseOpenObject(int(rv[0]))
	oo.OnRelease = func(sys.Ctx) { p.a.released <- 1 }
	return rv, oo, sys.OK
}

// fddanceWorld boots a registry with the fddance program.
func fddanceWorld(t *testing.T) *kernel.Kernel {
	t.Helper()
	reg := image.NewRegistry()
	reg.Register("fddance", libc.Main(func(lt *libc.T) int {
		lt.WriteFile("/tmp/mirror", []byte("m"), 0o644)
		fd, err := lt.Open("/tmp/mirror", sys.O_RDONLY, 0)
		if err != sys.OK {
			return 1
		}
		d1, _ := lt.Dup(fd)
		d2 := 10
		lt.Dup2(fd, d2)
		lt.Close(fd) // two aliases remain
		lt.Close(d1) // one alias remains
		b := make([]byte, 1)
		if n, err := lt.Read(d2, b); err != sys.OK || n != 1 || b[0] != 'm' {
			return 2 // the surviving alias must still work
		}
		lt.Close(d2) // last alias: release fires
		return 0
	}))
	k := kernel.New(reg)
	if err := k.InstallProgram("/bin/fddance", "fddance"); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSignalInterpositionChain(t *testing.T) {
	// Two layers: the lower rewrites SIGUSR1 → SIGUSR2; the upper counts
	// what it sees. Ordering: kernel → lower → upper → application.
	reg := image.NewRegistry()
	reg.Register("sigself", libc.Main(func(lt *libc.T) int {
		got := 0
		lt.Signal(sys.SIGUSR1, func(*libc.T, int) { got = 1 })
		lt.Signal(sys.SIGUSR2, func(*libc.T, int) { got = 2 })
		lt.Kill(lt.Getpid(), sys.SIGUSR1)
		lt.Printf("got=%d\n", got)
		return 0
	}))
	k := kernel.New(reg)
	k.InstallProgram("/bin/sigself", "sigself")

	rewrite := &sigRewriter{from: sys.SIGUSR1, to: sys.SIGUSR2}
	rewrite.Bind(rewrite)
	rewrite.RegisterAllSignals()
	var seen []int
	counter := &sigCounter{seen: &seen}
	counter.Bind(counter)
	counter.RegisterAllSignals()

	st, out, err := core.Run(k, []core.Agent{rewrite, counter}, "/bin/sigself", []string{"sigself"}, nil)
	if err != nil || sys.WExitStatus(st) != 0 {
		t.Fatalf("%v %#x %q", err, st, out)
	}
	if out != "got=2\n" {
		t.Fatalf("application saw %q, want the rewritten signal", out)
	}
	if len(seen) == 0 || seen[0] != sys.SIGUSR2 {
		t.Fatalf("upper layer saw %v, want the rewritten SIGUSR2 first", seen)
	}
}

type sigRewriter struct {
	core.Symbolic
	from, to int
}

func (a *sigRewriter) SignalUp(c sys.Ctx, sig, code int) int {
	if sig == a.from {
		return a.to
	}
	return sig
}

type sigCounter struct {
	core.Symbolic
	seen *[]int
}

func (a *sigCounter) SignalUp(c sys.Ctx, sig, code int) int {
	*a.seen = append(*a.seen, sig)
	return sig
}

func TestSignalSuppression(t *testing.T) {
	reg := image.NewRegistry()
	reg.Register("victim", libc.Main(func(lt *libc.T) int {
		lt.Kill(lt.Getpid(), sys.SIGTERM) // would terminate...
		lt.Printf("alive\n")
		return 0
	}))
	k := kernel.New(reg)
	k.InstallProgram("/bin/victim", "victim")

	shield := &sigShield{}
	shield.Bind(shield)
	shield.RegisterAllSignals()
	st, out, err := core.Run(k, []core.Agent{shield}, "/bin/victim", []string{"victim"}, nil)
	if err != nil || sys.WExitStatus(st) != 0 || out != "alive\n" {
		t.Fatalf("%v %#x %q", err, st, out)
	}
}

// sigShield suppresses SIGTERM before it reaches the application.
type sigShield struct{ core.Symbolic }

func (a *sigShield) SignalUp(c sys.Ctx, sig, code int) int {
	if sig == sys.SIGTERM {
		return 0
	}
	return sig
}

func TestDownWrite(t *testing.T) {
	k := kernel.New(image.NewRegistry())
	p := k.NewProc()
	p.OpenConsole()
	writer := sys.HandlerFunc(func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
		if e := core.DownWrite(c, 1, []byte("from the agent\n")); e != sys.OK {
			t.Errorf("DownWrite: %v", e)
		}
		return core.Down(c, num, a)
	})
	layer := kernel.NewEmuLayer(writer)
	layer.RegisterInterest(sys.SYS_getpid)
	p.PushEmulation(layer)
	p.Syscall(sys.SYS_getpid, sys.Args{})
	if got := k.Console().TakeOutput(); got != "from the agent\n" {
		t.Fatalf("console = %q", got)
	}
}

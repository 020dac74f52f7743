package kernel

import (
	"testing"

	"interpose/internal/image"
	"interpose/internal/sys"
)

// TestPlanInterceptsExecve pins the condition under which Proc.run
// pre-sizes a process's stack: some layer intercepts execve. A bare
// process and one whose only layer takes a shallow call do not.
func TestPlanInterceptsExecve(t *testing.T) {
	p := New(image.NewRegistry()).NewProc()
	h := sys.HandlerFunc(func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
		return sys.Retval{}, sys.ENOSYS
	})
	if p.plan.Load().intercepts(sys.SYS_execve) {
		t.Error("bare process: plan intercepts execve")
	}
	clock := NewEmuLayer(h)
	clock.RegisterInterest(sys.SYS_gettimeofday)
	p.PushEmulation(clock)
	if p.plan.Load().intercepts(sys.SYS_execve) {
		t.Error("gettimeofday-only layer: plan intercepts execve")
	}
	all := NewEmuLayer(h)
	all.RegisterAll()
	p.PushEmulation(all)
	if !p.plan.Load().intercepts(sys.SYS_execve) {
		t.Error("blanket layer: plan does not intercept execve")
	}
	p.RemoveEmulation(all)
	if p.plan.Load().intercepts(sys.SYS_execve) {
		t.Error("blanket layer removed: plan still intercepts execve")
	}
}

// TestPushEmulationCap: the interest bitmaps cover MaxLayers layers, so
// the stack fills at exactly MaxLayers and the next push panics.
func TestPushEmulationCap(t *testing.T) {
	p := New(image.NewRegistry()).NewProc()
	h := sys.HandlerFunc(func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
		return c.(LayerCtx).Down(num, a)
	})
	for i := 0; i < MaxLayers; i++ {
		l := NewEmuLayer(h)
		l.RegisterAll()
		p.PushEmulation(l)
	}
	if m := p.InterestMask(sys.SYS_getpid); m != 1<<MaxLayers-1 {
		t.Fatalf("full stack: getpid mask %#x, want every layer", m)
	}
	if rv, err := p.Syscall(sys.SYS_getpid, sys.Args{}); err != sys.OK || int(rv[0]) != p.PID() {
		t.Fatalf("getpid through %d layers = %v, %v", MaxLayers, rv, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("pushing layer 33 did not panic")
		}
		if n := len(p.Emulation()); n != MaxLayers {
			t.Fatalf("stack holds %d layers after the refused push", n)
		}
	}()
	p.PushEmulation(NewEmuLayer(h))
}

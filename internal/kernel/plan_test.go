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
	clock.Register(sys.SYS_gettimeofday)
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

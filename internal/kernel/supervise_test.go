package kernel_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"interpose/internal/image"
	"interpose/internal/kernel"
	"interpose/internal/libc"
	"interpose/internal/sys"
	"interpose/internal/telemetry"
)

// downer is the call-down capability of a layer context (core.Downer,
// redeclared locally to keep this package free of the toolkit).
type downer interface {
	Down(num int, a sys.Args) (sys.Retval, sys.Errno)
}

func callDown(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
	return c.(downer).Down(num, a)
}

// superviseWorld boots a kernel with a host-driven process and one named
// layer interested in getpid, running h.
func superviseWorld(t *testing.T, name string, h sys.HandlerFunc) (*kernel.Kernel, *kernel.Proc, *kernel.EmuLayer) {
	t.Helper()
	k := kernel.New(image.NewRegistry())
	p := k.NewProc()
	l := kernel.NewEmuLayer(h)
	l.Name = name
	l.RegisterInterest(sys.SYS_getpid)
	p.PushEmulation(l)
	return k, p, l
}

func TestParseSuperviseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		mode kernel.SuperviseMode
		ok   bool
		err  bool
	}{
		{"off", 0, false, false},
		{"", 0, false, false},
		{"strict", kernel.SuperviseStrict, true, false},
		{"bypass", kernel.SuperviseBypass, true, false},
		{"lenient", 0, false, true},
	} {
		mode, ok, err := kernel.ParseSuperviseMode(tc.in)
		if (err != nil) != tc.err || ok != tc.ok || (ok && mode != tc.mode) {
			t.Errorf("ParseSuperviseMode(%q) = %v, %v, %v", tc.in, mode, ok, err)
		}
	}
}

func TestSupervisorContainsPanicStrict(t *testing.T) {
	k, p, _ := superviseWorld(t, "boom", func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
		panic("agent bug")
	})
	s := kernel.NewSupervisor(k, kernel.SupervisorConfig{
		Mode:          kernel.SuperviseStrict,
		TripThreshold: 100, // keep the breaker closed; this test is about containment
	})
	k.SetSupervisor(s)

	_, err := p.Syscall(sys.SYS_getpid, sys.Args{})
	if err != sys.EFAULT {
		t.Fatalf("supervised panic: err = %s, want EFAULT", err.Name())
	}
	// The process survives: uninterposed calls still work.
	rv, err := p.Syscall(sys.SYS_getuid, sys.Args{})
	if err != sys.OK {
		t.Fatalf("getuid after contained panic: %s", err.Name())
	}
	_ = rv
	msg, stack, ok := s.LastPanic("boom")
	if !ok || msg != "agent bug" || len(stack) == 0 {
		t.Fatalf("LastPanic = %q, %d bytes, %v", msg, len(stack), ok)
	}
}

func TestSupervisorContainsPanicCustomErrno(t *testing.T) {
	k, p, _ := superviseWorld(t, "boom", func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
		panic("agent bug")
	})
	k.SetSupervisor(kernel.NewSupervisor(k, kernel.SupervisorConfig{
		Errno:         sys.EIO,
		TripThreshold: 100,
	}))
	if _, err := p.Syscall(sys.SYS_getpid, sys.Args{}); err != sys.EIO {
		t.Fatalf("err = %s, want EIO", err.Name())
	}
}

func TestSupervisorBypassCompletesBelow(t *testing.T) {
	k, p, _ := superviseWorld(t, "boom", func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
		panic("agent bug")
	})
	k.SetSupervisor(kernel.NewSupervisor(k, kernel.SupervisorConfig{
		Mode:          kernel.SuperviseBypass,
		TripThreshold: 100,
	}))
	rv, err := p.Syscall(sys.SYS_getpid, sys.Args{})
	if err != sys.OK || int(rv[0]) != p.PID() {
		t.Fatalf("bypassed call = %v, %s; want pid %d", rv, err.Name(), p.PID())
	}
}

func TestSupervisorBreakerTripsAndQuarantines(t *testing.T) {
	var calls atomic.Int64
	k, p, _ := superviseWorld(t, "boom", func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
		calls.Add(1)
		panic("agent bug")
	})
	reg := telemetry.NewRegistry()
	k.SetTelemetry(reg)
	s := kernel.NewSupervisor(k, kernel.SupervisorConfig{
		TripThreshold: 3,
		Cooldown:      -1, // permanent quarantine
	})
	k.SetSupervisor(s)

	for i := 0; i < 3; i++ {
		if _, err := p.Syscall(sys.SYS_getpid, sys.Args{}); err != sys.EFAULT {
			t.Fatalf("call %d: err = %s, want EFAULT", i, err.Name())
		}
	}
	if got := s.QuarantinedLayers(); len(got) != 1 || got[0] != "boom" {
		t.Fatalf("QuarantinedLayers = %v, want [boom]", got)
	}
	// The trip republished the plan: the layer's interest bit is gone and
	// the call completes in the kernel without entering the layer.
	if m := p.InterestMask(sys.SYS_getpid); m != 0 {
		t.Fatalf("InterestMask(getpid) = %#x after quarantine, want 0", m)
	}
	rv, err := p.Syscall(sys.SYS_getpid, sys.Args{})
	if err != sys.OK || int(rv[0]) != p.PID() {
		t.Fatalf("post-quarantine call = %v, %s", rv, err.Name())
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("layer ran %d times, want 3 (quarantine must bypass it)", n)
	}

	// Breaker state is visible to telemetry.
	gauges := map[string]uint64{}
	for _, g := range s.Gauges() {
		gauges[g.Name] = g.Value
	}
	for name, want := range map[string]uint64{
		"supervise.layer.boom.panics":      3,
		"supervise.layer.boom.contained":   3,
		"supervise.layer.boom.trips":       1,
		"supervise.layer.boom.quarantined": 1,
	} {
		if gauges[name] != want {
			t.Errorf("gauge %s = %d, want %d", name, gauges[name], want)
		}
	}
	// And the flight ring carries the quarantine event with the layer name.
	var sawQuarantine bool
	for _, ev := range reg.FlightEvents() {
		if ev.Op == "supervise:quarantine" && ev.Path == "boom" {
			sawQuarantine = true
		}
	}
	if !sawQuarantine {
		t.Error("no supervise:quarantine flight event for layer boom")
	}
}

func TestSupervisorHalfOpenReadmission(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	var calls atomic.Int64
	k, p, _ := superviseWorld(t, "flaky", func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
		calls.Add(1)
		if fail.Load() {
			panic("transient bug")
		}
		return callDown(c, num, a)
	})
	s := kernel.NewSupervisor(k, kernel.SupervisorConfig{
		TripThreshold: 1,
		Cooldown:      20 * time.Millisecond,
	})
	k.SetSupervisor(s)

	if _, err := p.Syscall(sys.SYS_getpid, sys.Args{}); err != sys.EFAULT {
		t.Fatalf("tripping call: err = %s", err.Name())
	}
	if got := s.QuarantinedLayers(); len(got) != 1 {
		t.Fatalf("QuarantinedLayers = %v", got)
	}

	// The layer recovers; after the cooldown the breaker goes half-open
	// and republishes the interest bit so a probe can reach it.
	fail.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for p.InterestMask(sys.SYS_getpid) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interest bit never restored for half-open probe")
		}
		time.Sleep(time.Millisecond)
	}
	rv, err := p.Syscall(sys.SYS_getpid, sys.Args{}) // the probe
	if err != sys.OK || int(rv[0]) != p.PID() {
		t.Fatalf("probe call = %v, %s", rv, err.Name())
	}
	if got := s.QuarantinedLayers(); len(got) != 0 {
		t.Fatalf("still quarantined after successful probe: %v", got)
	}
	// Re-admitted: subsequent calls run through the layer again.
	before := calls.Load()
	if _, err := p.Syscall(sys.SYS_getpid, sys.Args{}); err != sys.OK {
		t.Fatalf("re-admitted call: %s", err.Name())
	}
	if calls.Load() != before+1 {
		t.Fatal("re-admitted layer was not called")
	}
}

func TestSupervisorProbeFailureRequarantines(t *testing.T) {
	k, p, _ := superviseWorld(t, "boom", func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
		panic("permanent bug")
	})
	s := kernel.NewSupervisor(k, kernel.SupervisorConfig{
		TripThreshold: 1,
		Cooldown:      15 * time.Millisecond,
	})
	k.SetSupervisor(s)

	if _, err := p.Syscall(sys.SYS_getpid, sys.Args{}); err != sys.EFAULT {
		t.Fatalf("tripping call: err = %s", err.Name())
	}
	// Wait for half-open, fail the probe, and verify the re-trip.
	deadline := time.Now().Add(5 * time.Second)
	for p.InterestMask(sys.SYS_getpid) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("breaker never went half-open")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Syscall(sys.SYS_getpid, sys.Args{}); err != sys.EFAULT {
		t.Fatalf("probe: err = %s, want EFAULT", err.Name())
	}
	if got := s.QuarantinedLayers(); len(got) != 1 || got[0] != "boom" {
		t.Fatalf("QuarantinedLayers after failed probe = %v", got)
	}
	var trips uint64
	for _, g := range s.Gauges() {
		if g.Name == "supervise.layer.boom.trips" {
			trips = g.Value
		}
	}
	if trips != 2 {
		t.Fatalf("trips = %d, want 2", trips)
	}
}

func TestSupervisorRemovalRestoresInterest(t *testing.T) {
	var calls atomic.Int64
	k, p, _ := superviseWorld(t, "boom", func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
		if calls.Add(1) <= 2 {
			panic("bug")
		}
		return callDown(c, num, a)
	})
	s := kernel.NewSupervisor(k, kernel.SupervisorConfig{TripThreshold: 2, Cooldown: -1})
	k.SetSupervisor(s)
	p.Syscall(sys.SYS_getpid, sys.Args{})
	p.Syscall(sys.SYS_getpid, sys.Args{})
	if m := p.InterestMask(sys.SYS_getpid); m != 0 {
		t.Fatalf("InterestMask = %#x, want 0 (quarantined)", m)
	}
	// Removing the supervisor republishes plans: the layer is back.
	k.SetSupervisor(nil)
	if m := p.InterestMask(sys.SYS_getpid); m == 0 {
		t.Fatal("InterestMask still 0 after supervisor removal")
	}
	if _, err := p.Syscall(sys.SYS_getpid, sys.Args{}); err != sys.OK {
		t.Fatalf("unsupervised call: %s", err.Name())
	}
}

// TestSupervisorExitUnwind runs a real guest under a supervised blanket
// layer: the exit and exec unwinds must pass through containment
// untouched or process termination would be swallowed.
func TestSupervisorExitUnwind(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		reg := image.NewRegistry()
		reg.Register("main", libc.Main(func(lt *libc.T) int {
			lt.Printf("pid %d alive\n", lt.Getpid())
			return 7
		}))
		k := kernel.New(reg)
		if err := k.InstallProgram("/bin/main", "main"); err != nil {
			t.Fatal(err)
		}
		k.SetSupervisor(kernel.NewSupervisor(k, kernel.SupervisorConfig{Mode: kernel.SuperviseStrict}))
		p := k.NewProc()
		if err := p.OpenConsole(); err != nil {
			t.Fatal(err)
		}
		passthrough := kernel.NewEmuLayer(sys.HandlerFunc(callDown))
		passthrough.Name = "passthrough"
		passthrough.RegisterAll()
		p.PushEmulation(passthrough)
		if err := p.Start("/bin/main", []string{"main"}, nil); err != nil {
			t.Fatal(err)
		}
		st := k.WaitExit(p)
		out := k.Console().TakeOutput()
		if !sys.WIfExited(st) || sys.WExitStatus(st) != 7 {
			t.Fatalf("status = %#x, output:\n%s", st, out)
		}
		if !strings.Contains(out, "alive") {
			t.Fatalf("guest output missing: %q", out)
		}
	})
}

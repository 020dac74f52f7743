package kernel_test

import (
	"testing"

	"interpose/internal/image"
	"interpose/internal/kernel"
	"interpose/internal/sys"
	"interpose/internal/telemetry"
	"interpose/internal/trace"
)

// gauge returns the named row of a telemetry snapshot's counters.
func gauge(t *testing.T, r *telemetry.Registry, name string) uint64 {
	t.Helper()
	for _, c := range r.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("no %s gauge", name)
	return 0
}

// TestTraceDroppedGaugeSurvivesClear overfills the span ring, clears it
// the way a guest does (echo clear > /dev/trace), and checks that the
// trace.dropped gauge did not fall: it counts spans lost to overwrite,
// which a clear cannot undo, and trace.spans keeps counting across it.
func TestTraceDroppedGaugeSurvivesClear(t *testing.T) {
	k := kernel.New(image.NewRegistry())
	reg := telemetry.NewRegistry()
	k.SetTelemetry(reg)
	k.SetSpanTracer(trace.NewTracer(trace.Config{Sample: 1, Capacity: 64}))
	p := k.NewProc()
	for i := 0; i < 100; i++ {
		p.Syscall(sys.SYS_getpid, sys.Args{})
	}
	dropped := gauge(t, reg, "trace.dropped")
	if dropped == 0 {
		t.Fatal("ring never overflowed; trace.dropped untested")
	}

	path, errno := p.EmuString("/dev/trace")
	if errno != sys.OK {
		t.Fatal(errno)
	}
	rv, errno := p.Syscall(sys.SYS_open, sys.Args{path, sys.O_WRONLY})
	if errno != sys.OK {
		t.Fatalf("open /dev/trace: %v", errno)
	}
	cmd, _ := p.EmuBytes([]byte("clear\n"))
	if _, errno := p.Syscall(sys.SYS_write, sys.Args{rv[0], cmd, 6}); errno != sys.OK {
		t.Fatalf("write clear: %v", errno)
	}
	if got := gauge(t, reg, "trace.dropped"); got < dropped {
		t.Fatalf("trace.dropped fell across clear: %d -> %d", dropped, got)
	}
}

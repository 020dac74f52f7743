package agents_test

import (
	"encoding/json"
	"strings"
	"testing"

	"interpose/internal/agents/agenttest"
	"interpose/internal/kernel"
	"interpose/internal/sys"
	"interpose/internal/telemetry"
	spantrace "interpose/internal/trace"
)

// TestDevTraceFromGuest checks the span tracer's in-world window: an
// unmodified guest reads Chrome trace-event JSON from /dev/trace with
// plain read system calls, and retunes the tracer by writing to it.
func TestDevTraceFromGuest(t *testing.T) {
	k := agenttest.World(t)

	// Without a tracer installed the device reports tracing as off.
	st, out := agenttest.Run(t, k, nil, "cat", "/dev/trace")
	if st != 0 {
		t.Fatalf("cat /dev/trace: exit %d\n%s", st, out)
	}
	if !strings.Contains(out, "tracing: disabled") {
		t.Fatalf("expected disabled banner, got:\n%s", out)
	}

	tr := spantrace.NewTracer(spantrace.Config{Sample: 1})
	k.SetSpanTracer(tr)

	// Generate traffic, then read the document back from inside the world.
	if st, _ := agenttest.Run(t, k, nil, "echo", "hello"); st != 0 {
		t.Fatal("echo failed")
	}
	st, out = agenttest.Run(t, k, nil, "cat", "/dev/trace")
	if st != 0 {
		t.Fatalf("cat /dev/trace: exit %d\n%s", st, out)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("/dev/trace is not valid JSON: %v\n%.400s", err, out)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/dev/trace rendered no events")
	}

	// The device is a control surface: a guest write retunes sampling.
	if st, out := agenttest.Run(t, k, nil, "sh", "-c", "echo sample 0.25 > /dev/trace"); st != 0 {
		t.Fatalf("echo sample: exit %d\n%s", st, out)
	}
	if r := tr.SampleRate(); r < 0.24 || r > 0.26 {
		t.Fatalf("guest write set sample rate %v, want ~0.25", r)
	}

	// clear drops the buffered spans; with sampling off nothing new lands.
	tr.SetSample(0)
	if st, out := agenttest.Run(t, k, nil, "sh", "-c", "echo clear > /dev/trace"); st != 0 {
		t.Fatalf("echo clear: exit %d\n%s", st, out)
	}
	if spans := tr.Snapshot(); len(spans) != 0 {
		t.Fatalf("%d spans survived a guest clear at sample 0", len(spans))
	}
}

// TestTracePipelineCausality runs a shell pipeline under full sampling
// and checks the result is one connected trace: every process hangs off
// the shell by fork edges, the pipe read links to the writer, and the
// shell's wait links to its children's exits.
func TestTracePipelineCausality(t *testing.T) {
	k := agenttest.World(t)
	tr := spantrace.NewTracer(spantrace.Config{Sample: 1, Capacity: 1 << 18})
	k.SetSpanTracer(tr)

	st, out := agenttest.Run(t, k, nil, "sh", "-c", "cat /etc/passwd | grep root")
	if st != 0 || !strings.Contains(out, "root") {
		t.Fatalf("pipeline exited %d\n%s", st, out)
	}

	spans := tr.Snapshot()
	if _, dropped := tr.Stats(); dropped != 0 {
		t.Fatalf("%d spans dropped; raise Capacity", dropped)
	}
	byID := make(map[uint64]spantrace.Span, len(spans))
	traces := make(map[uint64]bool)
	pids := make(map[int32]bool)
	for _, sp := range spans {
		byID[sp.ID] = sp
		traces[sp.Trace] = true
		pids[sp.PID] = true
	}
	if len(traces) != 1 {
		t.Errorf("pipeline produced %d traces, want 1 connected trace", len(traces))
	}
	if len(pids) < 3 {
		t.Fatalf("pipeline spans cover %d pids, want sh + cat + grep", len(pids))
	}

	// Every non-root process's first span must causally chain to another
	// process (its forking parent).
	rootPID := spans[0].PID
	for pid := range pids {
		if pid == rootPID {
			continue
		}
		var first *spantrace.Span
		for i := range spans {
			if spans[i].PID == pid && spans[i].Layer == spantrace.LayerRoot {
				first = &spans[i]
				break
			}
		}
		if first == nil {
			continue
		}
		src, ok := byID[first.Parent]
		if !ok || src.PID == pid {
			t.Errorf("pid %d's first span (%s) has no cross-process causal parent", pid, first.Name)
		}
	}

	// The pipe edge: some read links to a cross-process write.
	foundPipe := false
	for _, sp := range spans {
		if sp.Num != sys.SYS_read || sp.Link == 0 {
			continue
		}
		if src, ok := byID[sp.Link]; ok && src.Num == sys.SYS_write && src.PID != sp.PID {
			foundPipe = true
			break
		}
	}
	if !foundPipe {
		t.Error("no pipe read→write causal link recorded")
	}

	// The wait edge: the shell's wait4 links to a child's exit span.
	foundWait := false
	for _, sp := range spans {
		if sp.Num != sys.SYS_wait4 || sp.Link == 0 {
			continue
		}
		if src, ok := byID[sp.Link]; ok && src.Num == sys.SYS_exit && src.PID != sp.PID {
			foundWait = true
			break
		}
	}
	if !foundWait {
		t.Error("no wait4→exit causal link recorded")
	}
}

// TestSuperviseStateGaugeFromGuest checks that breaker state — including
// the closed/open/half-open distinction — is visible in /dev/metrics.
func TestSuperviseStateGaugeFromGuest(t *testing.T) {
	k := agenttest.World(t)
	reg := telemetry.NewRegistry()
	k.SetTelemetry(reg)
	k.SetSupervisor(kernel.NewSupervisor(k, kernel.SupervisorConfig{
		Mode: kernel.SuperviseStrict,
	}))

	panicky := kernel.NewEmuLayer(sys.HandlerFunc(
		func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
			panic("tracing_test: injected agent bug")
		}))
	panicky.Name = "buggy"
	panicky.RegisterInterest(sys.SYS_getpagesize)

	p := k.NewProc()
	if err := p.OpenConsole(); err != nil {
		t.Fatal(err)
	}
	p.PushEmulation(panicky)
	if _, err := p.Syscall(sys.SYS_getpagesize, sys.Args{}); err == sys.OK {
		t.Fatal("contained panic returned OK")
	}

	st, out := agenttest.Run(t, k, nil, "cat", "/dev/metrics")
	if st != 0 {
		t.Fatalf("cat /dev/metrics: exit %d\n%s", st, out)
	}
	for _, want := range []string{
		"supervise.layer.buggy.panics",
		"supervise.layer.buggy.state",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in /dev/metrics:\n%s", want, out)
		}
	}
}

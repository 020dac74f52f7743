package kernel_test

import (
	"testing"

	"interpose/internal/kernel"
	"interpose/internal/libc"
	"interpose/internal/sys"
	"interpose/internal/trace"
)

// findSpan returns the first span matching pred, or nil.
func findSpan(spans []trace.Span, pred func(trace.Span) bool) *trace.Span {
	for i := range spans {
		if pred(spans[i]) {
			return &spans[i]
		}
	}
	return nil
}

// TestTraceCausalEdges drives every cross-process causal edge in one
// guest program — fork, pipe write→read, signal post→deliver, and
// wait — and checks the recorded spans connect into a single trace.
func TestTraceCausalEdges(t *testing.T) {
	tr := trace.NewTracer(trace.Config{Sample: 1, Capacity: 1 << 18})
	st, out := runFnSetup(t, func(k *kernel.Kernel) { k.SetSpanTracer(tr) }, func(lt *libc.T) int {
		r, w, errno := lt.Pipe()
		if errno != sys.OK {
			lt.Errorf("pipe: %v", errno)
			return 1
		}
		pid, errno := lt.Fork(func(ct *libc.T) {
			done := false
			ct.Signal(sys.SIGUSR1, func(ht *libc.T, sig int) { done = true })
			ct.Write(w, []byte("r")) // ready: handler installed
			for !done {
				ct.Syscall(sys.SYS_getpid)
			}
			ct.Exit(7)
		})
		if errno != sys.OK {
			lt.Errorf("fork: %v", errno)
			return 1
		}
		buf := make([]byte, 1)
		if _, errno := lt.Read(r, buf); errno != sys.OK {
			lt.Errorf("read: %v", errno)
			return 1
		}
		if errno := lt.Kill(pid, sys.SIGUSR1); errno != sys.OK {
			lt.Errorf("kill: %v", errno)
			return 1
		}
		_, wst, errno := lt.Waitpid(pid)
		if errno != sys.OK || sys.WExitStatus(wst) != 7 {
			lt.Errorf("wait: %v status %#x", errno, wst)
			return 1
		}
		return 0
	})
	if !sys.WIfExited(st) || sys.WExitStatus(st) != 0 {
		t.Fatalf("guest exited %#x\n%s", st, out)
	}

	spans := tr.Snapshot()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	byID := make(map[uint64]trace.Span, len(spans))
	traces := make(map[uint64]bool)
	pids := make(map[int32]bool)
	for _, sp := range spans {
		byID[sp.ID] = sp
		traces[sp.Trace] = true
		pids[sp.PID] = true
	}
	if len(traces) != 1 {
		t.Errorf("spans belong to %d traces, want 1", len(traces))
	}
	if len(pids) < 2 {
		t.Fatalf("spans cover %d pids, want parent and child", len(pids))
	}

	// Fork edge: the child's first root span's causal parent is the
	// parent's fork span.
	forkSpan := findSpan(spans, func(sp trace.Span) bool {
		return sp.Num == sys.SYS_fork && sp.Layer == trace.LayerRoot
	})
	if forkSpan == nil {
		t.Fatal("no fork span")
	}
	childRoot := findSpan(spans, func(sp trace.Span) bool {
		return sp.Parent == forkSpan.ID && sp.PID != forkSpan.PID
	})
	if childRoot == nil {
		t.Error("no child span causally parented by the fork span")
	}

	// Pipe edge: the parent's pipe read links to the child's write span.
	readSpan := findSpan(spans, func(sp trace.Span) bool {
		if sp.Num != sys.SYS_read || sp.Layer != trace.LayerRoot || sp.Link == 0 {
			return false
		}
		src, ok := byID[sp.Link]
		return ok && src.Num == sys.SYS_write && src.PID != sp.PID
	})
	if readSpan == nil {
		t.Error("no read span linked to a cross-process write span")
	}

	// Signal edge: a delivery span in the child links to the parent's
	// kill span, and the child's next root span is parented by it.
	killSpan := findSpan(spans, func(sp trace.Span) bool {
		return sp.Num == sys.SYS_kill && sp.Layer == trace.LayerRoot
	})
	if killSpan == nil {
		t.Fatal("no kill span")
	}
	delivery := findSpan(spans, func(sp trace.Span) bool {
		return sp.Layer == trace.LayerSignal && sp.Link == killSpan.ID
	})
	if delivery == nil {
		t.Fatal("no signal-delivery span linked to the kill span")
	}
	if delivery.Num != sys.SIGUSR1 || delivery.PID == killSpan.PID {
		t.Errorf("delivery span = %+v, want SIGUSR1 in the child", delivery)
	}
	afterDelivery := findSpan(spans, func(sp trace.Span) bool {
		return sp.Parent == delivery.ID && sp.PID == delivery.PID
	})
	if afterDelivery == nil {
		t.Error("no child span causally parented by the signal delivery")
	}

	// Wait edge: the parent's reaping wait4 links to the child's
	// entry-recorded exit span.
	waitSpan := findSpan(spans, func(sp trace.Span) bool {
		if sp.Num != sys.SYS_wait4 || sp.Link == 0 {
			return false
		}
		src, ok := byID[sp.Link]
		return ok && src.Num == sys.SYS_exit && src.PID != sp.PID
	})
	if waitSpan == nil {
		t.Error("no wait4 span linked to a cross-process exit span")
	}
	exitSpan := findSpan(spans, func(sp trace.Span) bool {
		return sp.Num == sys.SYS_exit && sp.PID != killSpan.PID
	})
	if exitSpan == nil {
		t.Fatal("no child exit span")
	} else if exitSpan.Dur != -1 {
		t.Errorf("exit span Dur = %d, want -1 (entry-recorded)", exitSpan.Dur)
	}
}

// TestTraceExecEdge checks the exec causal edge: a successful execve is
// entry-recorded and becomes the causal parent of the fresh image's
// first span, in the same process.
func TestTraceExecEdge(t *testing.T) {
	tr := trace.NewTracer(trace.Config{Sample: 1})
	st, out := runFnSetup(t, func(k *kernel.Kernel) { k.SetSpanTracer(tr) }, func(lt *libc.T) int {
		if len(lt.Args) > 1 && lt.Args[1] == "execd" {
			// The fresh image: exit before forking, or every image would
			// fork the next and the chain would outlive the test.
			return 0
		}
		pid, errno := lt.Fork(func(ct *libc.T) {
			ct.Exec("/bin/main", []string{"main", "execd"}, nil)
			ct.Exit(3) // only reached if exec failed
		})
		if errno != sys.OK {
			return 1
		}
		_, wst, _ := lt.Waitpid(pid)
		if sys.WExitStatus(wst) != 0 {
			return 1
		}
		return 0
	})
	if !sys.WIfExited(st) || sys.WExitStatus(st) != 0 {
		t.Fatalf("guest exited %#x\n%s", st, out)
	}

	spans := tr.Snapshot()
	execSpan := findSpan(spans, func(sp trace.Span) bool {
		return sp.Num == sys.SYS_execve && sp.Layer == trace.LayerRoot
	})
	if execSpan == nil {
		t.Fatal("no execve span")
	}
	if execSpan.Dur != -1 {
		t.Errorf("execve span Dur = %d, want -1 (entry-recorded)", execSpan.Dur)
	}
	after := findSpan(spans, func(sp trace.Span) bool {
		return sp.Parent == execSpan.ID && sp.PID == execSpan.PID
	})
	if after == nil {
		t.Error("no span causally parented by the execve span")
	}
}

// TestTraceLayerSpans checks per-layer attribution: with an emulation
// layer installed, a sampled call records a root span, a layer child
// span carrying the layer's name, and a kernel-leg child span.
func TestTraceLayerSpans(t *testing.T) {
	tr := trace.NewTracer(trace.Config{Sample: 1})
	k, p, _ := superviseWorld(t, "shim", sys.HandlerFunc(callDown))
	k.SetSpanTracer(tr)
	if _, err := p.Syscall(sys.SYS_getpid, sys.Args{}); err != sys.OK {
		t.Fatalf("getpid: %v", err)
	}

	spans := tr.Snapshot()
	root := findSpan(spans, func(sp trace.Span) bool {
		return sp.Num == sys.SYS_getpid && sp.Layer == trace.LayerRoot
	})
	if root == nil {
		t.Fatal("no getpid root span")
	}
	layerSpan := findSpan(spans, func(sp trace.Span) bool {
		return sp.Num == sys.SYS_getpid && sp.Layer > 0 && sp.Parent == root.ID
	})
	if layerSpan == nil {
		t.Fatal("no layer child span under the getpid root")
	}
	if layerSpan.Name != "shim" {
		t.Errorf("layer span name = %q, want shim", layerSpan.Name)
	}
	kernelLeg := findSpan(spans, func(sp trace.Span) bool {
		return sp.Num == sys.SYS_getpid && sp.Layer == trace.LayerKernel && sp.Parent == layerSpan.ID
	})
	if kernelLeg == nil {
		t.Error("no kernel-leg span under the layer span")
	}
}

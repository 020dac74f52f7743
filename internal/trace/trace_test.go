package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"interpose/internal/sys"
)

func TestSampledRate(t *testing.T) {
	tr := NewTracer(Config{Sample: 0.25})
	var state uint64
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if tr.Sampled(&state, 7) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.22 || got > 0.28 {
		t.Errorf("sample rate 0.25 drew %.3f over %d calls", got, n)
	}
}

func TestSampledExtremes(t *testing.T) {
	var state uint64
	off := NewTracer(Config{Sample: 0})
	always := NewTracer(Config{Sample: 1})
	for i := 0; i < 1000; i++ {
		if off.Sampled(&state, 1) {
			t.Fatal("sample 0 drew true")
		}
		if !always.Sampled(&state, 1) {
			t.Fatal("sample 1 drew false")
		}
	}
	if r := off.SampleRate(); r != 0 {
		t.Errorf("SampleRate() = %v, want 0", r)
	}
	if r := always.SampleRate(); r != 1 {
		t.Errorf("SampleRate() = %v, want 1", r)
	}
}

func TestSetSampleClamps(t *testing.T) {
	tr := NewTracer(Config{})
	tr.SetSample(-3)
	if r := tr.SampleRate(); r != 0 {
		t.Errorf("SetSample(-3): rate %v, want 0", r)
	}
	tr.SetSample(17)
	if r := tr.SampleRate(); r != 1 {
		t.Errorf("SetSample(17): rate %v, want 1", r)
	}
	tr.SetSample(0.5)
	if r := tr.SampleRate(); r < 0.49 || r > 0.51 {
		t.Errorf("SetSample(0.5): rate %v", r)
	}
}

func TestTailRetention(t *testing.T) {
	tr := NewTracer(Config{Slow: time.Millisecond, TailErrors: true})
	if !tr.TailEnabled() {
		t.Fatal("TailEnabled() = false with slow threshold and error retention set")
	}
	if !tr.Tail(2*time.Millisecond, false) {
		t.Error("slow call not retained")
	}
	if tr.Tail(time.Microsecond, false) {
		t.Error("fast successful call retained")
	}
	if !tr.Tail(0, true) {
		t.Error("failed call not retained")
	}
	none := NewTracer(Config{Sample: 1})
	if none.TailEnabled() {
		t.Error("TailEnabled() = true with no tail rules")
	}
}

func TestRecordSnapshotOrder(t *testing.T) {
	tr := NewTracer(Config{Capacity: 64})
	for i := 0; i < 40; i++ {
		tr.Record(Span{Trace: 1, ID: tr.NewSpanID(), PID: 1, Num: int32(i), Layer: LayerRoot})
	}
	spans := tr.Snapshot()
	if len(spans) != 40 {
		t.Fatalf("Snapshot() returned %d spans, want 40", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq <= spans[i-1].Seq {
			t.Fatalf("Seq not strictly increasing at %d: %d then %d", i, spans[i-1].Seq, spans[i].Seq)
		}
	}
	rec, dropped := tr.Stats()
	if rec != 40 || dropped != 0 {
		t.Errorf("Stats() = (%d, %d), want (40, 0)", rec, dropped)
	}
}

func TestSnapshotOverwriteDrops(t *testing.T) {
	tr := NewTracer(Config{Capacity: 64}) // 8 slots per shard
	const writes = 200
	for i := 0; i < writes; i++ {
		tr.Record(Span{Trace: 1, ID: tr.NewSpanID(), Layer: LayerRoot})
	}
	spans := tr.Snapshot()
	if len(spans) == 0 || len(spans) > 64 {
		t.Fatalf("Snapshot() returned %d spans for a 64-slot buffer", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq != spans[i-1].Seq+1 {
			t.Fatalf("gap in trimmed snapshot: Seq %d follows %d", spans[i].Seq, spans[i-1].Seq)
		}
	}
	if last := spans[len(spans)-1].Seq; last != writes-1 {
		t.Errorf("newest surviving Seq = %d, want %d", last, writes-1)
	}
	_, dropped := tr.Stats()
	if dropped != writes-64 {
		t.Errorf("Stats() dropped = %d, want %d", dropped, writes-64)
	}
}

func TestClear(t *testing.T) {
	tr := NewTracer(Config{Capacity: 64})
	for i := 0; i < 10; i++ {
		tr.Record(Span{Trace: 1, ID: tr.NewSpanID(), Layer: LayerRoot})
	}
	tr.Clear()
	if spans := tr.Snapshot(); len(spans) != 0 {
		t.Fatalf("Snapshot() after Clear() returned %d spans", len(spans))
	}
	// Sequence numbering keeps running across a clear.
	tr.Record(Span{Trace: 1, ID: tr.NewSpanID(), Layer: LayerRoot})
	spans := tr.Snapshot()
	if len(spans) != 1 || spans[0].Seq != 10 {
		t.Fatalf("post-clear snapshot = %+v, want one span with Seq 10", spans)
	}
}

func TestWriteChrome(t *testing.T) {
	tr := NewTracer(Config{Capacity: 64})
	root := Span{Trace: 1, ID: 1, PID: 1, Num: int32(sys.SYS_read), Layer: LayerRoot, Start: 1000, Dur: 5000}
	child := Span{Trace: 1, ID: 2, Parent: 1, PID: 1, Num: int32(sys.SYS_read), Layer: LayerKernel, Start: 2000, Dur: 1000}
	forked := Span{Trace: 1, ID: 3, Parent: 1, PID: 2, Num: int32(sys.SYS_getpid), Layer: LayerRoot, Start: 7000, Dur: 100}
	linked := Span{Trace: 1, ID: 4, Parent: 0, Link: 1, PID: 3, Num: int32(sys.SYS_exit), Layer: LayerRoot, Start: 9000, Dur: -1}
	for _, sp := range []Span{root, child, forked, linked} {
		tr.Record(sp)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			PID  int32          `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteChrome produced invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	var x, flows int
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			x++
			names[e.Name] = true
			if e.Args["unfinished"] == true && e.Dur != 0 {
				t.Errorf("unfinished span rendered with dur %v", e.Dur)
			}
		case "s", "f":
			flows++
		}
	}
	if x != 4 {
		t.Errorf("%d X events, want 4", x)
	}
	// One cross-pid parent arrow (forked) + one link arrow (linked), each
	// an s/f pair.
	if flows != 4 {
		t.Errorf("%d flow events, want 4", flows)
	}
	if !names["kernel:read"] {
		t.Errorf("kernel leg span name missing; names = %v", names)
	}
	if !names["read"] || !names["exit"] {
		t.Errorf("root span names missing; names = %v", names)
	}
}

func TestSpanNameLayers(t *testing.T) {
	sig := Span{Num: int32(sys.SIGCHLD), Layer: LayerSignal}
	if got := spanName(sig); got != "signal:SIGCHLD" {
		t.Errorf("signal span name = %q", got)
	}
	agent := Span{Num: int32(sys.SYS_write), Layer: 1, Name: "monitor"}
	if got := spanName(agent); got != "monitor:write" {
		t.Errorf("agent span name = %q", got)
	}
}

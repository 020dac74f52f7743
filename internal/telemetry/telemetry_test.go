package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"interpose/internal/sys"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)           // bucket 1: [1, 2)
	h.Observe(3)           // bucket 2: [2, 4)
	h.Observe(1000)        // bucket 10: [512, 1024)
	h.Observe(time.Second) // high bucket
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	b := h.Buckets()
	if b[0] != 1 || b[1] != 1 || b[2] != 1 || b[10] != 1 {
		t.Fatalf("buckets = %v", b[:12])
	}
	if h.Max() != time.Second {
		t.Fatalf("max = %v", h.Max())
	}
	if h.Mean() == 0 {
		t.Fatal("mean should be nonzero")
	}
	// p99 of this distribution lands in the top occupied bucket's bound.
	if q := h.Quantile(0.99); q < time.Second {
		t.Fatalf("p99 = %v, want >= 1s", q)
	}
	if q := h.Quantile(0.5); q > time.Millisecond {
		t.Fatalf("p50 = %v, want small", q)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast observations, 9 medium, 1 slow: p50 lands in the fast
	// bucket, p90 at its edge, p99 in the slow tail.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Nanosecond) // bucket [64, 128)
	}
	for i := 0; i < 9; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.Observe(100 * time.Millisecond)

	qs := h.Quantiles(0.5, 0.9, 0.99)
	if len(qs) != 3 {
		t.Fatalf("Quantiles returned %d values", len(qs))
	}
	if qs[0] != h.Quantile(0.5) || qs[2] != h.Quantile(0.99) {
		t.Errorf("Quantiles disagrees with Quantile: %v vs %v/%v", qs, h.Quantile(0.5), h.Quantile(0.99))
	}
	if qs[0] > 128*time.Nanosecond {
		t.Errorf("p50 = %v, want within the fast bucket", qs[0])
	}
	if qs[1] < qs[0] || qs[2] < qs[1] {
		t.Errorf("quantiles not monotone: %v", qs)
	}
	if qs[2] < 100*time.Millisecond {
		t.Errorf("p99 = %v, want >= 100ms", qs[2])
	}

	var empty Histogram
	for _, q := range empty.Quantiles(0.5, 0.99) {
		if q != 0 {
			t.Errorf("empty histogram quantile = %v, want 0", q)
		}
	}
}

func TestObserveLatencyAndSyscallQuantiles(t *testing.T) {
	r := NewRegistry()
	r.IncSyscall(sys.SYS_write) // counted, never timed
	if _, timed := r.SyscallQuantiles(sys.SYS_write, 0.5); timed != 0 {
		t.Fatalf("timed = %d for an untimed call", timed)
	}
	r.ObserveLatency(sys.SYS_write, time.Microsecond)
	if got := r.SyscallCount(sys.SYS_write); got != 1 {
		t.Fatalf("ObserveLatency changed the occurrence count: %d", got)
	}
	qs, timed := r.SyscallQuantiles(sys.SYS_write, 0.5, 0.99)
	if timed != 1 {
		t.Fatalf("timed = %d, want 1", timed)
	}
	if qs[0] < time.Microsecond || qs[0] > 2*time.Microsecond {
		t.Errorf("p50 = %v, want ~1µs bucket bound", qs[0])
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	var r Ring[Event]
	r.Init(16)
	for i := 0; i < 100; i++ {
		r.Record(Event{PID: int32(i)})
	}
	evs := r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("len = %d, want 16", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events not ordered by seq: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	// All survivors are from the most recent writes, gap-free.
	if evs[0].Seq < 84 {
		t.Fatalf("oldest surviving seq = %d, want >= 84", evs[0].Seq)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("gap in dump: seq %d follows %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// TestRingTrimsStaleSurvivor forces the hazard the gap-free trim exists
// for: a recorder preempted between drawing its sequence number and
// filling its slot leaves one shard holding a stale old event while the
// others wrap far past it. The dump must drop everything at or before
// the resulting gap rather than splice ancient events into the middle of
// recent history.
func TestRingTrimsStaleSurvivor(t *testing.T) {
	var r Ring[Event]
	r.Init(16)
	for i := 0; i < 100; i++ {
		r.Record(Event{PID: int32(i)})
	}
	s := &r.shards[5]
	s.mu.Lock()
	s.slots[0] = Event{Seq: 5, PID: 5}
	s.mu.Unlock()

	evs := r.Snapshot()
	if len(evs) == 0 {
		t.Fatal("empty dump")
	}
	for i, e := range evs {
		if e.Seq == 5 {
			t.Fatalf("stale event survived the trim at index %d", i)
		}
		if i > 0 && evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("gap in dump: seq %d follows %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
	if evs[len(evs)-1].Seq != 99 {
		t.Fatalf("newest surviving seq = %d, want 99", evs[len(evs)-1].Seq)
	}
}

func TestRegistryCountersAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("widgets").Add(3)
	r.Counter("widgets").Add(1)
	r.RecordSyscall(sys.SYS_getpid, 100*time.Nanosecond, false)
	r.RecordSyscall(sys.SYS_open, time.Microsecond, true)
	r.RecordLayer(0, "kernel", 90*time.Nanosecond)
	r.RecordLayer(1, "trace", 40*time.Nanosecond)
	r.RecordEvent(7, sys.SYS_getpid, 0, 100*time.Nanosecond)
	r.RecordFileEvent(7, "open", "/etc/passwd", "", 3, 0)

	s := r.Snapshot()
	if s.Total != 2 || s.Errs != 1 {
		t.Fatalf("total=%d errs=%d", s.Total, s.Errs)
	}
	if len(s.Counters) != 1 || s.Counters[0].Value != 4 {
		t.Fatalf("counters = %+v", s.Counters)
	}
	if len(s.Layers) != 2 || s.Layers[0].Name != "kernel" || s.Layers[1].Name != "trace" {
		t.Fatalf("layers = %+v", s.Layers)
	}
	if len(s.Flight) != 2 {
		t.Fatalf("flight = %+v", s.Flight)
	}
	if s.Flight[1].Num != -1 || s.Flight[1].Path != "/etc/passwd" {
		t.Fatalf("file event = %+v", s.Flight[1])
	}

	var text bytes.Buffer
	s.WriteText(&text)
	for _, want := range []string{"telemetry:", "widgets", "getpid", "open", "trace"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text missing %q:\n%s", want, text.String())
		}
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("json round-trip: %v", err)
	}
	if decoded.Total != 2 || len(decoded.Syscalls) != 2 {
		t.Fatalf("decoded = %+v", decoded)
	}

	var flight bytes.Buffer
	s.WriteFlight(&flight)
	if !strings.Contains(flight.String(), "file:open") {
		t.Fatalf("flight dump:\n%s", flight.String())
	}
}

func TestLayerAttributionClamping(t *testing.T) {
	r := NewRegistry()
	r.RecordLayer(MaxAttrLayers+5, "deep", time.Microsecond)
	s := r.Snapshot()
	if len(s.Layers) != 1 || s.Layers[0].Layer != MaxAttrLayers {
		t.Fatalf("layers = %+v", s.Layers)
	}
}

// TestConcurrentRecording hammers every recording path from many
// goroutines while snapshots are taken; run with -race.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("shared")
			for i := 0; i < 2000; i++ {
				c.Add(1)
				r.RecordSyscall(sys.SYS_read, time.Duration(i), i%7 == 0)
				r.RecordLayer(g%3, "layer", time.Duration(i))
				r.RecordEvent(g, sys.SYS_read, 0, time.Duration(i))
				r.RecordFileEvent(g, "open", "/tmp/x", "", 3, 0)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("shared").Load(); got != 16000 {
		t.Fatalf("shared = %d", got)
	}
	if got := r.SyscallCount(sys.SYS_read); got != 16000 {
		t.Fatalf("read count = %d", got)
	}
}

// TestLazySyscallSlots pins the lazy-allocation contract that keeps an
// idle world's registry at its small floor even with telemetry on: no
// per-syscall stat (with its latency histogram) exists until that call
// number's first recording, and concurrent first hits converge on a
// single slot.
func TestLazySyscallSlots(t *testing.T) {
	r := NewRegistry()
	for num := 0; num < sys.MaxSyscall; num++ {
		if r.syscalls[num].Load() != nil {
			t.Fatalf("syscall %d has a stat slot before any recording", num)
		}
	}

	r.RecordSyscall(7, time.Microsecond, false)
	for num := 0; num < sys.MaxSyscall; num++ {
		if (r.syscalls[num].Load() != nil) != (num == 7) {
			t.Fatalf("after recording 7, slot state wrong at %d", num)
		}
	}
	if got := r.SyscallCount(7); got != 1 {
		t.Fatalf("count(7) = %d", got)
	}
	// Un-recorded numbers answer zero without allocating.
	if got := r.SyscallCount(9); got != 0 {
		t.Fatalf("count(9) = %d", got)
	}
	if r.syscalls[9].Load() != nil {
		t.Fatal("read path allocated a stat slot")
	}

	// Concurrent first hits on one number converge on one slot.
	r2 := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r2.IncSyscall(3)
			}
		}()
	}
	wg.Wait()
	if got := r2.SyscallCount(3); got != 800 {
		t.Fatalf("concurrent first hits lost counts: %d", got)
	}
}

// TestLazyRingShards: flight-ring shard slot arrays allocate on the
// shard's first event, not at registry creation.
func TestLazyRingShards(t *testing.T) {
	r := NewRegistry()
	for i := range r.ring.shards {
		if r.ring.shards[i].slots != nil {
			t.Fatalf("shard %d has slots before any event", i)
		}
	}
	// One event lands in exactly one shard.
	r.RecordEvent(1, 5, 0, time.Microsecond)
	allocated := 0
	for i := range r.ring.shards {
		if r.ring.shards[i].slots != nil {
			allocated++
			if len(r.ring.shards[i].slots) != defaultRingSize/ringShards {
				t.Fatalf("shard %d sized %d", i, len(r.ring.shards[i].slots))
			}
		}
	}
	if allocated != 1 {
		t.Fatalf("%d shards allocated after one event", allocated)
	}
	// The snapshot sees the event; empty shards contribute nothing.
	if evs := r.FlightEvents(); len(evs) != 1 {
		t.Fatalf("flight events %d", len(evs))
	}
}

// TestRingRecordAllocFree pins the flight recorder's recording path:
// once every ring shard exists, recording an event allocates nothing.
func TestRingRecordAllocFree(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < ringShards; i++ {
		r.RecordEvent(1, 5, 0, time.Microsecond)
	}
	if n := testing.AllocsPerRun(1000, func() {
		r.RecordEvent(1, 5, 0, time.Microsecond)
		r.RecordFileEvent(1, "open", "/etc/passwd", "", 3, 0)
	}); n != 0 {
		t.Fatalf("recording allocates %v times per event pair", n)
	}
}

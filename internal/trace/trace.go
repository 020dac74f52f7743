// Package trace is the causal span tracer: the per-call companion to
// package telemetry's aggregates. Where telemetry answers "how many and
// how slow on average", a span trace answers "why was this one call
// slow, and which layer of which process caused it" — the observability
// instrument the paper's trace (§3.3.2) and dfstrace (§3.5.3) agents
// point at.
//
// Each sampled system call opens a root span; each interested
// emulation-layer upcall and the kernel leg open child spans, so
// per-layer self-time attribution is per-call and exact. Causal edges —
// fork, exec, pipe write→read, signal post→deliver, and wait — carry
// span references between processes, so a parallel build renders as one
// connected trace.
//
// The package follows the toolkit's pay-per-use principle. A Tracer is
// installed on a kernel with SetSpanTracer; while none is installed the
// only cost on the system call path is one atomic pointer load. Once
// installed, head sampling (Sampled) decides per call whether to record
// spans, and tail retention (Tail) additionally keeps unsampled calls
// that ran slow or failed. Spans land in a telemetry.Ring, the same
// sharded overwrite-oldest buffer the flight recorder uses.
package trace

import (
	"math"
	"sync/atomic"
	"time"

	"interpose/internal/telemetry"
)

// Span layer codes. Non-negative layers mirror telemetry's attribution
// indexing: 0 is the kernel leg, 1+i is emulation layer i (bottom = 0).
const (
	// LayerRoot marks a top-level system call span.
	LayerRoot int32 = -1
	// LayerKernel marks the kernel leg of a dispatch (self time of the
	// lowest instance of the system interface).
	LayerKernel int32 = 0
	// LayerSignal marks a signal-delivery span; Num holds the signal
	// number and Link the poster's root span.
	LayerSignal int32 = -2
)

// Span is one recorded interval. Spans are fixed-size values: recording
// one copies it into a preallocated slot and allocates nothing.
type Span struct {
	Seq    uint64 // global record order
	Trace  uint64 // trace (connected process tree) this span belongs to
	ID     uint64 // unique span id, never zero
	Parent uint64 // enclosing span (same process) or causal parent (fork/exec/signal); 0 = trace root
	Link   uint64 // cross-process causal origin (pipe writer, exited child, signal poster); 0 = none
	PID    int32
	Num    int32 // system call number; signal number when Layer == LayerSignal
	Layer  int32 // LayerRoot, LayerKernel, 1+i, or LayerSignal
	Err    int32 // errno at completion
	Start  int64 // nanoseconds since the tracer was created
	Dur    int64 // nanoseconds; -1 when recorded at entry (exit, exec)
	Name   string
}

// WithSeq returns sp stamped with ring sequence number seq.
func (sp Span) WithSeq(seq uint64) Span { sp.Seq = seq; return sp }

// Sequence returns sp's ring sequence number.
func (sp Span) Sequence() uint64 { return sp.Seq }

// Config tunes a Tracer. The zero value of each field selects the
// documented default.
type Config struct {
	// Sample is the head-sampling probability in [0, 1]: the fraction of
	// system calls that open spans. 0 disables head sampling (tail
	// retention may still record); 1 records every call.
	Sample float64

	// Slow, when positive, is the tail-retention latency threshold:
	// an unsampled call at least this slow is recorded as a root-only
	// span, so the outliers head sampling missed still show up.
	Slow time.Duration

	// TailErrors retains unsampled calls that return an errno, the other
	// half of tail retention.
	TailErrors bool

	// Capacity is the total span-slot count across shards. Default 64Ki.
	Capacity int
}

// defaultCapacity is the default total span-slot count.
const defaultCapacity = 1 << 16

// Tracer is one span-tracing domain: sampling state, causal-edge
// counters, and the sharded span buffer.
type Tracer struct {
	start time.Time

	// thresh is the head-sampling comparison threshold: a call is
	// sampled when its xorshift draw is <= thresh. 0 = never,
	// ^uint64(0) = always. Atomic so /dev/trace writes can retune it
	// while processes run.
	thresh   atomic.Uint64
	slow     atomic.Int64
	tailErrs atomic.Bool

	ids    atomic.Uint64 // span id allocator (first id is 1)
	traces atomic.Uint64 // trace id allocator (first id is 1)

	spans telemetry.Ring[Span]
}

// NewTracer builds a tracer with defaults applied.
func NewTracer(cfg Config) *Tracer {
	t := &Tracer{start: time.Now()}
	cap := cfg.Capacity
	if cap <= 0 {
		cap = defaultCapacity
	}
	t.spans.Init(cap)
	t.SetSample(cfg.Sample)
	t.slow.Store(int64(cfg.Slow))
	t.tailErrs.Store(cfg.TailErrors)
	return t
}

// SetSample changes the head-sampling probability (clamped to [0, 1]).
// Safe to call while processes run; calls in flight keep the decision
// they entered with.
func (t *Tracer) SetSample(p float64) {
	switch {
	case p <= 0:
		t.thresh.Store(0)
	case p >= 1:
		t.thresh.Store(^uint64(0))
	default:
		v := p * float64(math.MaxUint64)
		if v >= float64(math.MaxUint64) {
			t.thresh.Store(^uint64(0))
			return
		}
		t.thresh.Store(uint64(v))
	}
}

// SampleRate returns the current head-sampling probability.
func (t *Tracer) SampleRate() float64 {
	th := t.thresh.Load()
	switch th {
	case 0:
		return 0
	case ^uint64(0):
		return 1
	}
	return float64(th) / float64(math.MaxUint64)
}

// Sampled draws the head-sampling decision for one call. state is the
// caller's private xorshift64 state (one word per process, touched only
// by its own goroutine); seed folds in an identity so processes do not
// march in lockstep. The unsampled path is a load, three shifts, and a
// compare.
func (t *Tracer) Sampled(state *uint64, seed int) bool {
	th := t.thresh.Load()
	if th == 0 {
		return false
	}
	if th == ^uint64(0) {
		return true
	}
	s := *state
	if s == 0 {
		s = (uint64(seed)+1)*0x9E3779B97F4A7C15 | 1
	}
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	*state = s
	return s <= th
}

// Tail reports whether an unsampled call should be retained anyway:
// it was slow, or it failed and error retention is on.
func (t *Tracer) Tail(d time.Duration, failed bool) bool {
	if failed && t.tailErrs.Load() {
		return true
	}
	s := t.slow.Load()
	return s > 0 && int64(d) >= s
}

// TailEnabled reports whether any tail-retention rule is active (callers
// skip the clock reads entirely when neither head nor tail needs them).
func (t *Tracer) TailEnabled() bool {
	return t.tailErrs.Load() || t.slow.Load() > 0
}

// NewTrace allocates a trace id (a process tree's identity).
func (t *Tracer) NewTrace() uint64 { return t.traces.Add(1) }

// NewSpanID allocates a span id.
func (t *Tracer) NewSpanID() uint64 { return t.ids.Add(1) }

// Now returns nanoseconds since the tracer was created (the span
// timebase).
func (t *Tracer) Now() int64 { return int64(time.Since(t.start)) }

// At converts an absolute time to the span timebase.
func (t *Tracer) At(tm time.Time) int64 { return int64(tm.Sub(t.start)) }

// Record stores sp, overwriting the oldest span in its ring shard.
func (t *Tracer) Record(sp Span) { t.spans.Record(sp) }

// Stats returns the number of spans recorded and the number lost to
// buffer overwrite, for the trace.* gauges. Both only ever grow.
func (t *Tracer) Stats() (recorded, dropped uint64) {
	return t.spans.Recorded(), t.spans.Dropped()
}

// Clear drops all buffered spans (the /dev/trace "clear" command). Id
// and sequence counters keep running, so spans recorded before and after
// a clear still order globally.
func (t *Tracer) Clear() { t.spans.Clear() }

// Snapshot returns the surviving spans oldest first, trimmed to one
// gap-free run of sequence numbers (see telemetry.Ring.Snapshot).
func (t *Tracer) Snapshot() []Span { return t.spans.Snapshot() }

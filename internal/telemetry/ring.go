package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Event is one flight-recorder entry. Num >= 0 is a system call event
// (Dur is its wall time, or -1 when recorded at entry for calls that do
// not return); Num == -1 is a kernel file-reference event carrying Op and
// the pathname arguments. Events are fixed-size values: recording one
// copies it into a preallocated slot and allocates nothing.
type Event struct {
	Seq   uint64 `json:"seq"`
	Nanos int64  `json:"t_ns"` // since registry creation
	PID   int32  `json:"pid"`
	Num   int32  `json:"num"` // syscall number, -1 for file events
	Err   int32  `json:"err"`
	Dur   int64  `json:"dur_ns"` // -1 when unknown
	FD    int32  `json:"fd,omitempty"`
	Op    string `json:"op,omitempty"`
	Path  string `json:"path,omitempty"`
	Path2 string `json:"path2,omitempty"`
}

// WithSeq returns e stamped with ring sequence number seq.
func (e Event) WithSeq(seq uint64) Event { e.Seq = seq; return e }

// Sequence returns e's ring sequence number.
func (e Event) Sequence() uint64 { return e.Seq }

const (
	// defaultRingSize is the total flight-ring capacity (events).
	defaultRingSize = 1024
	// ringShards spreads ring slots across locks; a global sequence
	// number round-robins entries over shards so reconstruction by
	// sequence number restores total order.
	ringShards = 8
)

// Sequenced is an entry a Ring can hold: a fixed-size value that carries
// its own global sequence number.
type Sequenced[T any] interface {
	WithSeq(seq uint64) T
	Sequence() uint64
}

// Ring is the sharded overwrite-oldest buffer behind both the flight
// recorder (Event) and the span tracer (trace.Span). Every entry is
// stamped with a global sequence number that round-robins it onto a
// shard, so a snapshot sorted by sequence restores total order. Shard
// slot arrays are allocated on a shard's first write, not at Init: an
// idle ring costs eight empty headers, so a pooled idle world with
// telemetry enabled does not carry ~100 KB of empty flight slots.
// Recording copies one value under a brief shard lock and allocates
// nothing once the shard exists.
type Ring[T Sequenced[T]] struct {
	seq    atomic.Uint64 // entries ever recorded
	per    int           // slots per shard, fixed at Init
	shards [ringShards]ringShard[T]
}

type ringShard[T any] struct {
	mu      sync.Mutex
	slots   []T    // nil until the shard's first write
	n       uint64 // writes since the last Clear
	dropped uint64 // entries lost to overwrite, ever (Clear keeps it)
}

// Init sizes the ring to hold capacity entries in total.
func (r *Ring[T]) Init(capacity int) {
	r.per = max(capacity/ringShards, 1)
}

// Record stores v, stamped with the next sequence number, overwriting
// its shard's oldest slot.
func (r *Ring[T]) Record(v T) {
	seq := r.seq.Add(1) - 1
	s := &r.shards[seq%ringShards]
	s.mu.Lock()
	if s.slots == nil {
		s.slots = make([]T, r.per)
	}
	if s.n >= uint64(len(s.slots)) {
		s.dropped++
	}
	s.slots[s.n%uint64(len(s.slots))] = v.WithSeq(seq)
	s.n++
	s.mu.Unlock()
}

// Snapshot returns the surviving entries merged into one totally ordered
// history: sorted by sequence number, then trimmed to the longest
// gap-free suffix. Shards overwrite independently, so a recorder
// preempted between taking its sequence number and filling its slot can
// leave a stale old entry surviving in one shard while the others have
// moved on; everything before the resulting sequence gap is dropped, so
// the result reads as one contiguous recent history rather than
// reordered fragments. In steady state the per-shard windows line up
// exactly and nothing is trimmed.
func (r *Ring[T]) Snapshot() []T {
	var out []T
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		out = append(out, s.slots[:min(s.n, uint64(len(s.slots)))]...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sequence() < out[j].Sequence() })
	start := len(out) - 1
	for start > 0 && out[start-1].Sequence()+1 == out[start].Sequence() {
		start--
	}
	if start > 0 {
		out = out[start:]
	}
	return out
}

// Clear drops every buffered entry. The sequence number and the drop
// count keep running, so entries recorded before and after a clear still
// order globally and Dropped never falls.
func (r *Ring[T]) Clear() {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		s.n = 0
		s.mu.Unlock()
	}
}

// Recorded returns the number of entries ever recorded.
func (r *Ring[T]) Recorded() uint64 { return r.seq.Load() }

// Dropped returns the number of entries ever lost to overwrite.
func (r *Ring[T]) Dropped() uint64 {
	var n uint64
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += s.dropped
		s.mu.Unlock()
	}
	return n
}

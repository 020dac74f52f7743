// Package telemetry is the flight-recorder substrate shared by the
// simulated kernel and the interposition toolkit: named counters,
// log-bucketed latency histograms per system call, per-layer time
// attribution, and a fixed-size ring buffer of recent events.
//
// The package follows the toolkit's pay-per-use principle. A Registry is
// installed on a kernel with SetTelemetry; while no registry is installed
// the only cost on the system call path is an atomic pointer load. Once
// installed, every recording operation is lock-light: counters and
// histogram buckets are plain atomics, per-layer attribution is an array
// of atomics, and the flight ring shards its slots so concurrent
// processes rarely contend on the same lock.
package telemetry

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"interpose/internal/sys"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// MaxAttrLayers bounds the number of agent layers the per-layer
// attribution table distinguishes; deeper layers fold into the last slot.
const MaxAttrLayers = 8

// layerStat accumulates the self time of one instance of the system
// interface: an agent layer, or the kernel.
type layerStat struct {
	name  atomic.Pointer[string]
	calls atomic.Uint64
	self  atomic.Int64 // nanoseconds exclusive of lower instances
}

// syscallStat accumulates one system call number's counters and latency.
// Slots are allocated on a number's first recording (scstat), not at
// registry creation: an idle registry costs one pointer array, not
// MaxSyscall histograms — what keeps a pooled idle world near the
// no-telemetry heap floor even with telemetry enabled.
type syscallStat struct {
	calls Counter
	errs  Counter
	hist  Histogram
}

// Registry is one telemetry domain: a set of named counters, per-syscall
// statistics, per-layer attribution, and a flight-recorder ring.
type Registry struct {
	start time.Time

	mu    sync.Mutex // guards named-counter creation only
	named map[string]*Counter
	order []string

	// syscalls holds the lazily allocated per-number statistics; a nil
	// slot means the number was never recorded. Slots are installed by
	// CAS so concurrent first hits agree on one instance.
	syscalls [sys.MaxSyscall]atomic.Pointer[syscallStat]

	// layers[0] is the kernel; layers[1+i] is emulation layer i
	// (bottom = 0), matching the kernel's layer indexing.
	layers [1 + MaxAttrLayers]layerStat

	// gauges, when non-nil, is sampled at Snapshot time to append values
	// maintained outside the registry (kernel cache counters) to the
	// exported counter list without per-event recording cost.
	gauges atomic.Pointer[func() []NamedCounter]

	ring Ring[Event]
}

// NewRegistry creates an empty registry with the default flight-ring
// capacity.
func NewRegistry() *Registry {
	r := &Registry{start: time.Now(), named: make(map[string]*Counter)}
	r.ring.Init(defaultRingSize)
	kernel := "kernel"
	r.layers[0].name.Store(&kernel)
	return r
}

// sinceStart returns nanoseconds since the registry was created, the
// timebase of flight-ring events.
func (r *Registry) sinceStart() int64 { return int64(time.Since(r.start)) }

// Counter returns the named counter, creating it on first use. Callers on
// hot paths should look the counter up once and hold the pointer.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.named[name]; ok {
		return c
	}
	c := &Counter{}
	r.named[name] = c
	r.order = append(r.order, name)
	return c
}

// SetGaugeSource installs fn as the registry's gauge sampler: it is
// invoked at every Snapshot and its rows are appended to the exported
// counters. One slot — the latest call wins; nil removes it. The sampler
// must be safe to call from any goroutine.
func (r *Registry) SetGaugeSource(fn func() []NamedCounter) {
	if fn == nil {
		r.gauges.Store(nil)
		return
	}
	r.gauges.Store(&fn)
}

// scstat returns the statistics slot for one call number, allocating it
// on the number's first recording. The CAS makes concurrent first hits
// converge on a single instance; after that the cost is one atomic load.
func (r *Registry) scstat(num int) *syscallStat {
	if st := r.syscalls[num].Load(); st != nil {
		return st
	}
	st := &syscallStat{}
	if !r.syscalls[num].CompareAndSwap(nil, st) {
		st = r.syscalls[num].Load()
	}
	return st
}

// IncSyscall counts one occurrence of a system call number without latency
// information (pure counting instruments, e.g. the monitor agent).
func (r *Registry) IncSyscall(num int) {
	if num >= 0 && num < sys.MaxSyscall {
		r.scstat(num).calls.Add(1)
	}
}

// IncSyscallErr counts one failed occurrence of a system call number.
func (r *Registry) IncSyscallErr(num int) {
	if num >= 0 && num < sys.MaxSyscall {
		r.scstat(num).errs.Add(1)
	}
}

// ObserveLatency records latency for one call number without touching
// the occurrence counters, for instruments that count at entry (the
// monitor agent must count exit, which never returns from its downcall).
func (r *Registry) ObserveLatency(num int, d time.Duration) {
	if num >= 0 && num < sys.MaxSyscall {
		r.scstat(num).hist.Observe(d)
	}
}

// SyscallQuantiles estimates latency quantiles for one call number; the
// second result is the number of latency observations backing them (0
// means the call was only ever counted, never timed).
func (r *Registry) SyscallQuantiles(num int, qs ...float64) ([]time.Duration, uint64) {
	if num < 0 || num >= sys.MaxSyscall {
		return make([]time.Duration, len(qs)), 0
	}
	st := r.syscalls[num].Load()
	if st == nil {
		return make([]time.Duration, len(qs)), 0
	}
	return st.hist.Quantiles(qs...), st.hist.Count()
}

// SyscallCount returns the number of recorded calls for one number.
func (r *Registry) SyscallCount(num int) uint64 {
	if num < 0 || num >= sys.MaxSyscall {
		return 0
	}
	if st := r.syscalls[num].Load(); st != nil {
		return st.calls.Load()
	}
	return 0
}

// TotalSyscalls returns the number of recorded calls across all numbers.
func (r *Registry) TotalSyscalls() uint64 {
	var n uint64
	for i := range r.syscalls {
		if st := r.syscalls[i].Load(); st != nil {
			n += st.calls.Load()
		}
	}
	return n
}

// TotalErrs returns the number of recorded failed calls.
func (r *Registry) TotalErrs() uint64 {
	var n uint64
	for i := range r.syscalls {
		if st := r.syscalls[i].Load(); st != nil {
			n += st.errs.Load()
		}
	}
	return n
}

// RecordSyscall records one completed system call: its number, wall time,
// and whether it failed.
func (r *Registry) RecordSyscall(num int, d time.Duration, failed bool) {
	if num < 0 || num >= sys.MaxSyscall {
		return
	}
	st := r.scstat(num)
	st.calls.Add(1)
	if failed {
		st.errs.Add(1)
	}
	st.hist.Observe(d)
}

// RecordLayer attributes self time (exclusive of lower instances) to one
// instance of the system interface. layer 0 is the kernel; layer 1+i is
// emulation layer i. The name is recorded on first use.
func (r *Registry) RecordLayer(layer int, name string, self time.Duration) {
	if layer < 0 {
		return
	}
	if layer >= len(r.layers) {
		layer = len(r.layers) - 1
	}
	st := &r.layers[layer]
	st.calls.Add(1)
	if self > 0 {
		st.self.Add(int64(self))
	}
	if st.name.Load() == nil {
		if name == "" {
			name = "layer" + strconv.Itoa(layer)
		}
		st.name.Store(&name)
	}
}

// RecordEvent appends a system call event to the flight ring. dur < 0
// marks a call recorded at entry (one that will not return, like exit).
func (r *Registry) RecordEvent(pid, num int, errno int32, dur time.Duration) {
	r.ring.Record(Event{
		Nanos: r.sinceStart(),
		PID:   int32(pid),
		Num:   int32(num),
		Err:   errno,
		Dur:   int64(dur),
	})
}

// RecordFileEvent appends a kernel file-reference event (the kernel
// tracer spine) to the flight ring.
func (r *Registry) RecordFileEvent(pid int, op, path, path2 string, fd int, errno int32) {
	r.ring.Record(Event{
		Nanos: r.sinceStart(),
		PID:   int32(pid),
		Num:   -1,
		Err:   errno,
		Dur:   -1,
		Op:    op,
		Path:  path,
		Path2: path2,
		FD:    int32(fd),
	})
}

// FlightEvents returns the ring's surviving events, oldest first.
func (r *Registry) FlightEvents() []Event { return r.ring.Snapshot() }

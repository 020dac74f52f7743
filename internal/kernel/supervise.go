package kernel

// Agent supervision: the containment half of fault tolerance at the
// system interface. The paper's toolkit already has the escape hatch —
// htg_unix_syscall, "calling down past the agent" — and the supervisor
// uses it automatically: a panicking agent upcall is recovered and the
// guest's call either fails with a configurable errno (strict) or
// completes via the instances below the failed layer (bypass); repeated
// failures trip a per-layer circuit breaker that republishes every
// affected dispatch plan with the layer's interest bits cleared, so
// subsequent calls bypass the quarantined layer without even entering
// the supervisor; a cooldown later, a half-open probe call re-admits the
// layer if it behaves.
//
// Everything is pay-per-use. With no supervisor installed the dispatch
// fast path is unchanged (the uninterposed leg stays one atomic plan
// load; the interposed leg adds one atomic supervisor load, exactly like
// the telemetry and injector hooks). Breaker state surfaces as
// supervise.layer.* gauges in the telemetry snapshot and /dev/metrics.
//
// Lock ordering (extends DESIGN.md §8): the supervisor's registry lock
// s.mu and per-breaker b.mu are leaves below p.mu — compilePlan consults
// the quarantine set while holding p.mu — and neither k.pmu, p.mu, nor
// any other kernel lock may be acquired while holding them. Plan
// republication (trip, half-open, close) snapshots the process list
// under k.pmu, releases it, then recompiles each process under its own
// p.mu, per the §8 rule.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"interpose/internal/sys"
	"interpose/internal/telemetry"
)

// SuperviseMode selects what a contained layer failure does to the
// guest's system call.
type SuperviseMode int

const (
	// SuperviseStrict fails the call with the configured errno: the
	// guest sees the layer's failure as a faulted system call.
	SuperviseStrict SuperviseMode = iota
	// SuperviseBypass completes the call via the instances below the
	// failed layer — the paper's call-down, applied per failure.
	SuperviseBypass
)

// ParseSuperviseMode parses the -supervise flag syntax. "off" returns
// ok=false with no error: the caller installs no supervisor.
func ParseSuperviseMode(s string) (mode SuperviseMode, ok bool, err error) {
	switch s {
	case "off", "":
		return 0, false, nil
	case "strict":
		return SuperviseStrict, true, nil
	case "bypass":
		return SuperviseBypass, true, nil
	}
	return 0, false, fmt.Errorf("kernel: supervise mode %q: want strict, bypass, or off", s)
}

// SupervisorConfig tunes a Supervisor. The zero value of each field
// selects the documented default.
type SupervisorConfig struct {
	Mode SuperviseMode

	// Errno is returned for a contained failure in strict mode. Default
	// EFAULT.
	Errno sys.Errno

	// TripThreshold is the failure count that quarantines a layer.
	// Default 3.
	TripThreshold int

	// Window bounds the sliding failure window: only failures within
	// Window of each other count toward the threshold. Zero means no
	// expiry — a pure failure count, which is what deterministic replay
	// tests want.
	Window time.Duration

	// Cooldown is how long a quarantined layer waits before a half-open
	// probe may re-admit it. Zero selects the 5s default; negative
	// disables re-admission entirely (quarantine is permanent).
	Cooldown time.Duration

	// OnQuarantine, when set, runs (outside all kernel locks) each time
	// a layer is quarantined, with the layer's name and the stack of the
	// panic that tripped it.
	OnQuarantine func(layer string, stack []byte)
}

// Breaker states. Closed admits calls; open (quarantined) bypasses the
// layer; half-open admits one probe call at a time.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is the per-layer failure account. One exists per *EmuLayer the
// supervisor has seen fail or probe; fork shares layer pointers, so a
// layer's breaker is shared by every process it is installed in.
type breaker struct {
	layer *EmuLayer
	name  string

	state   atomic.Int32
	probing atomic.Bool // a half-open probe call is in flight

	panics atomic.Uint64 // contained panics: every contained failure is one
	trips  atomic.Uint64

	mu        sync.Mutex
	failures  []time.Time
	lastPanic string
	lastStack []byte
}

// Supervisor contains agent failures for one kernel. Install with
// Kernel.SetSupervisor.
type Supervisor struct {
	k   *Kernel
	cfg SupervisorConfig

	errno     sys.Errno
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	breakers map[*EmuLayer]*breaker
}

// NewSupervisor builds a supervisor for k with defaults applied.
func NewSupervisor(k *Kernel, cfg SupervisorConfig) *Supervisor {
	s := &Supervisor{
		k:         k,
		cfg:       cfg,
		errno:     cfg.Errno,
		threshold: cfg.TripThreshold,
		cooldown:  cfg.Cooldown,
		breakers:  make(map[*EmuLayer]*breaker),
	}
	if s.errno == sys.OK {
		s.errno = sys.EFAULT
	}
	if s.threshold <= 0 {
		s.threshold = 3
	}
	if s.cooldown == 0 {
		s.cooldown = 5 * time.Second
	}
	return s
}

// breakerFor returns (creating on demand) the layer's breaker.
func (s *Supervisor) breakerFor(l *EmuLayer) *breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[l]
	if b == nil {
		name := l.Name
		if name == "" {
			name = fmt.Sprintf("layer@%p", l)
		}
		b = &breaker{layer: l, name: name}
		s.breakers[l] = b
	}
	return b
}

// quarantined reports whether l is currently quarantined. compilePlan
// calls it under p.mu; s.mu must therefore stay a leaf lock.
func (s *Supervisor) quarantined(l *EmuLayer) bool {
	s.mu.Lock()
	b := s.breakers[l]
	s.mu.Unlock()
	return b != nil && b.state.Load() == breakerOpen
}

// QuarantinedLayers returns the names of currently quarantined layers,
// sorted, for tests and tooling.
func (s *Supervisor) QuarantinedLayers() []string {
	s.mu.Lock()
	var out []string
	for _, b := range s.breakers {
		if b.state.Load() == breakerOpen {
			out = append(out, b.name)
		}
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// LastPanic returns the most recent contained panic message and stack
// for the named layer.
func (s *Supervisor) LastPanic(layer string) (msg string, stack []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.breakers {
		if b.name != layer {
			continue
		}
		b.mu.Lock()
		msg, stack = b.lastPanic, b.lastStack
		b.mu.Unlock()
		return msg, stack, true
	}
	return "", nil, false
}

// Gauges exports per-layer breaker state for the telemetry snapshot; the
// kernel merges them into its gauge source, so they appear in
// /dev/metrics and agentrun -stats as supervise.layer.*.
func (s *Supervisor) Gauges() []telemetry.NamedCounter {
	s.mu.Lock()
	bs := make([]*breaker, 0, len(s.breakers))
	for _, b := range s.breakers {
		bs = append(bs, b)
	}
	s.mu.Unlock()
	sort.Slice(bs, func(i, j int) bool { return bs[i].name < bs[j].name })
	out := make([]telemetry.NamedCounter, 0, 5*len(bs))
	for _, b := range bs {
		pre := "supervise.layer." + b.name + "."
		st := b.state.Load()
		var q uint64
		if st == breakerOpen {
			q = 1
		}
		out = append(out,
			telemetry.NamedCounter{Name: pre + "panics", Value: b.panics.Load()},
			telemetry.NamedCounter{Name: pre + "contained", Value: b.panics.Load()},
			telemetry.NamedCounter{Name: pre + "trips", Value: b.trips.Load()},
			telemetry.NamedCounter{Name: pre + "quarantined", Value: q},
			// state distinguishes half-open (2) from open (1) and closed
			// (0), which the boolean quarantined gauge cannot.
			telemetry.NamedCounter{Name: pre + "state", Value: uint64(st)},
		)
	}
	return out
}

// call is the supervised upcall into layer i of plan pl. dispatch routes
// every interested-layer entry here while a supervisor is installed.
func (s *Supervisor) call(p *Proc, pl *dispatchPlan, i, num int, a sys.Args) (sys.Retval, sys.Errno) {
	b := s.breakerFor(pl.layers[i])
	switch b.state.Load() {
	case breakerOpen:
		// Quarantined: transparent call-down past the layer. The plan is
		// republished without its interest bits at trip time, so this
		// path only runs for calls that entered under the old plan.
		return p.dispatch(pl, i, num, a)
	case breakerHalfOpen:
		if !b.probing.CompareAndSwap(false, true) {
			return p.dispatch(pl, i, num, a)
		}
		defer b.probing.Store(false)
		rv, err, failed := s.run(p, pl, i, num, a, b)
		s.settleProbe(p, b, failed)
		if failed {
			return s.failResult(p, pl, i, num, a)
		}
		return rv, err
	}
	rv, err, failed := s.run(p, pl, i, num, a, b)
	if failed {
		return s.failResult(p, pl, i, num, a)
	}
	return rv, err
}

// failResult converts a contained failure into the guest-visible result
// the configured mode prescribes.
func (s *Supervisor) failResult(p *Proc, pl *dispatchPlan, i, num int, a sys.Args) (sys.Retval, sys.Errno) {
	if s.cfg.Mode == SuperviseBypass {
		return p.dispatch(pl, i, num, a)
	}
	return sys.Retval{}, s.errno
}

// panicInfo captures a contained panic.
type panicInfo struct {
	val   any
	stack []byte
}

func captureStack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}

// run executes the upcall with containment, feeding the breaker on a
// panic. failed is true when the layer panicked; the returned result is
// only meaningful when failed is false.
func (s *Supervisor) run(p *Proc, pl *dispatchPlan, i, num int, a sys.Args, b *breaker) (sys.Retval, sys.Errno, bool) {
	rv, err, pan := p.runLayerContained(pl, i, num, a)
	if pan != nil {
		s.noteFailure(p, b, pan)
		return sys.Retval{}, s.errno, true
	}
	return rv, err, false
}

// runLayerContained runs the layer upcall under recover. The kernel's
// own control-flow unwinds — exit and exec travel through agent frames
// by panic — MUST pass through untouched, or a supervised layer would
// swallow process termination.
func (p *Proc) runLayerContained(pl *dispatchPlan, i, num int, a sys.Args) (rv sys.Retval, err sys.Errno, pan *panicInfo) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case exitUnwind, execUnwind:
			panic(r)
		default:
			pan = &panicInfo{val: r, stack: captureStack()}
		}
	}()
	rv, err = p.invokeLayer(pl, i, num, a)
	return
}

// noteFailure accounts one contained panic: counters, a flight-ring
// event carrying the layer name, the breaker's failure window, and —
// past the threshold — the trip.
func (s *Supervisor) noteFailure(p *Proc, b *breaker, pan *panicInfo) {
	msg := fmt.Sprint(pan.val)
	b.panics.Add(1)
	if r := s.k.tel.Load(); r != nil {
		r.Counter("supervise.contained").Add(1)
		r.RecordFileEvent(p.pid, "supervise:panic", b.name, trimMsg(msg), -1, int32(s.errno))
	}

	trip := false
	b.mu.Lock()
	b.lastPanic = msg
	b.lastStack = pan.stack
	now := time.Now()
	b.failures = append(b.failures, now)
	if w := s.cfg.Window; w > 0 {
		cut := now.Add(-w)
		keep := b.failures[:0]
		for _, ts := range b.failures {
			if ts.After(cut) {
				keep = append(keep, ts)
			}
		}
		b.failures = keep
	}
	if b.state.Load() == breakerClosed && len(b.failures) >= s.threshold {
		trip = true
	}
	// The window only ever needs threshold entries to decide a trip; cap
	// it so a non-tripping breaker (huge threshold, or failures while
	// open) cannot grow without bound.
	if n := len(b.failures); n > s.threshold {
		b.failures = append(b.failures[:0], b.failures[n-s.threshold:]...)
	}
	b.mu.Unlock()
	if trip {
		s.quarantine(p, b, breakerClosed)
	}
}

// quarantine trips the breaker from the given state (closed on a fresh
// trip, half-open on a failed probe), republishes every affected plan
// without the layer, and schedules the half-open probe.
func (s *Supervisor) quarantine(p *Proc, b *breaker, from int32) {
	if !b.state.CompareAndSwap(from, breakerOpen) {
		return
	}
	b.trips.Add(1)
	b.mu.Lock()
	b.failures = nil
	stack := b.lastStack
	b.mu.Unlock()
	s.k.republishPlans(b.layer)
	if r := s.k.tel.Load(); r != nil {
		r.Counter("supervise.trips").Add(1)
		pid := 0
		if p != nil {
			pid = p.pid
		}
		r.RecordFileEvent(pid, "supervise:quarantine", b.name, "", -1, int32(s.errno))
	}
	if s.cooldown > 0 {
		time.AfterFunc(s.cooldown, func() { s.halfOpen(b) })
	}
	if fn := s.cfg.OnQuarantine; fn != nil {
		fn(b.name, stack)
	}
}

// halfOpen moves a quarantined breaker to half-open after the cooldown
// and restores the layer's interest bits so a probe call can reach it.
func (s *Supervisor) halfOpen(b *breaker) {
	if !b.state.CompareAndSwap(breakerOpen, breakerHalfOpen) {
		return
	}
	if r := s.k.tel.Load(); r != nil {
		r.RecordFileEvent(0, "supervise:half-open", b.name, "", -1, 0)
	}
	s.k.republishPlans(b.layer)
}

// settleProbe resolves a half-open probe: success closes the breaker
// (the layer is re-admitted), failure re-quarantines it for another
// cooldown.
func (s *Supervisor) settleProbe(p *Proc, b *breaker, failed bool) {
	if failed {
		s.quarantine(p, b, breakerHalfOpen)
		return
	}
	if b.state.CompareAndSwap(breakerHalfOpen, breakerClosed) {
		b.mu.Lock()
		b.failures = nil
		b.mu.Unlock()
		if r := s.k.tel.Load(); r != nil {
			r.RecordFileEvent(p.pid, "supervise:close", b.name, "", -1, 0)
		}
	}
}

// trimMsg bounds a panic message for the flight ring.
func trimMsg(s string) string {
	const max = 120
	if len(s) > max {
		return s[:max] + "…"
	}
	return s
}

// SetSupervisor installs (or removes, with nil) the kernel's supervisor.
// Removal republishes every process's dispatch plan so layers that were
// quarantined regain their interest bits.
func (k *Kernel) SetSupervisor(s *Supervisor) {
	if s == nil {
		k.sup.Store(nil)
		k.republishPlans(nil)
		return
	}
	k.sup.Store(s)
}

// Supervisor returns the installed supervisor, or nil.
func (k *Kernel) Supervisor() *Supervisor {
	return k.sup.Load()
}

// republishPlans recompiles and republishes the dispatch plan of every
// process whose stack contains l (every process, when l is nil). The
// process list is snapshotted under k.pmu and each plan rebuilt under
// its own p.mu, never both at once (DESIGN.md §8).
func (k *Kernel) republishPlans(l *EmuLayer) {
	k.pmu.Lock()
	procs := make([]*Proc, 0, len(k.procs))
	for _, p := range k.procs {
		procs = append(procs, p)
	}
	k.pmu.Unlock()
	for _, p := range procs {
		p.mu.Lock()
		if l == nil {
			p.recompilePlanLocked()
		} else {
			for _, el := range p.emu {
				if el == l {
					p.recompilePlanLocked()
					break
				}
			}
		}
		p.mu.Unlock()
	}
}

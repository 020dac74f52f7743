// Health watchdogs and automatic world recovery: the fleet-level
// resilience layer that keeps worldd serving unattended while
// individual worlds crash, wedge, or corrupt their journals.
//
// # State machine
//
// Every hosted world carries a health state driven by one server-wide
// watchdog goroutine:
//
//	healthy ──(session over deadline, supervisor quarantine)──▶ suspect
//	healthy/suspect ──(crash-freeze, journal error, wedged
//	                   session, failed/timed-out probe)───────▶ dead
//	dead ──(rebuild succeeds)──▶ healthy
//	dead ──(restart budget exhausted)──▶ parked   (terminal until DELETE)
//
// Suspect is advisory — the world still serves sessions — and clears
// when an idle-time liveness probe succeeds with no quarantined layer
// left. Dead is acted on: the world is condemned (world.Kill, which
// fails new sessions fast and breaks a wedged one loose with SIGKILL),
// torn down via world.Close (sealing its journal), and rebuilt the way
// it was created — a fresh fork of the server's base, its journal
// replayed and fsck-gated — under exponential backoff with
// deterministic jitter and a per-tenant restart budget.
//
// # Signals
//
// The watchdog invents no new instrumentation; it reads what the layers
// below already latch: the fault injector's crash-freeze
// (world.Crashed), the journal writer's first store failure
// (journal.Writer.Err — the EROFS latch), the supervisor's breaker
// state (Supervisor.QuarantinedLayers), the kernel crash hook (a push
// path installed at adopt so an injected crash is noticed the moment it
// fires, not a sweep later), session age against the deadline, and a
// periodic probe run through the normal Exec path while the world is
// idle. fsck failures surface as build errors on the rebuild path and
// consume restart budget like any other failed attempt.
//
// # Lock ordering
//
// Health code takes entry.mu (the per-world structural lock serializing
// recovery against DELETE and Shutdown) and never Server.mu inside it;
// Server.mu remains a leaf that guards only the world table. World and
// kernel locks order below entry.mu as usual. declareDead and the crash
// hook take no locks at all — state transitions are CAS on atomics — so
// they are safe from guest syscall goroutines.
package worldd

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"interpose/internal/telemetry"
	"interpose/internal/world"
)

// HealthConfig tunes the watchdog. The zero value selects the defaults
// below; Disabled turns the whole facility off (no watchdog goroutine,
// no probes, no recovery — the pre-health server behavior).
type HealthConfig struct {
	// Disabled turns the watchdog off entirely.
	Disabled bool
	// ProbeInterval is the watchdog sweep period and the idle-probe
	// cadence (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one liveness probe (default 1s). A probe
	// that neither completes nor fails within it declares the world
	// dead — unless a tenant session snuck in, in which case the
	// session-deadline path owns the verdict.
	ProbeTimeout time.Duration
	// ProbeArgv is the probe session (default ["true"]).
	ProbeArgv []string
	// SessionDeadline marks a tenant session suspect when it has run
	// past the deadline and dead past twice it (default 30s; 0 disables
	// the deadline checks).
	SessionDeadline time.Duration
	// RestartBudget is the number of recovery attempts allowed within
	// RestartWindow before the tenant is parked (default 5).
	RestartBudget int
	// RestartWindow is the sliding budget window (default 1m).
	RestartWindow time.Duration
	// BackoffBase and BackoffMax shape the exponential recovery backoff
	// (defaults 25ms and 2s); each attempt waits base·2^n, capped, with
	// ±50% deterministic jitter.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the jitter generator (0 = fixed default), so tests and
	// the chaos soak replay identical schedules.
	Seed uint64
}

// withDefaults fills the zero fields.
func (h HealthConfig) withDefaults() HealthConfig {
	if h.ProbeInterval <= 0 {
		h.ProbeInterval = time.Second
	}
	if h.ProbeTimeout <= 0 {
		h.ProbeTimeout = time.Second
	}
	if len(h.ProbeArgv) == 0 {
		h.ProbeArgv = []string{"true"}
	}
	if h.SessionDeadline == 0 {
		h.SessionDeadline = 30 * time.Second
	}
	if h.RestartBudget <= 0 {
		h.RestartBudget = 5
	}
	if h.RestartWindow <= 0 {
		h.RestartWindow = time.Minute
	}
	if h.BackoffBase <= 0 {
		h.BackoffBase = 25 * time.Millisecond
	}
	if h.BackoffMax <= 0 {
		h.BackoffMax = 2 * time.Second
	}
	if h.Seed == 0 {
		h.Seed = 0x9e3779b97f4a7c15
	}
	return h
}

// Health states, in escalation order. The zero value is healthy so a
// fresh entry needs no initialization.
const (
	healthHealthy int32 = iota
	healthSuspect
	healthDead
	healthParked
)

// healthName renders a state for the wire and the metrics view.
func healthName(st int32) string {
	switch st {
	case healthHealthy:
		return "healthy"
	case healthSuspect:
		return "suspect"
	case healthDead:
		return "dead"
	case healthParked:
		return "parked"
	}
	return fmt.Sprintf("state%d", st)
}

// setReason records the latest health transition cause ("" clears).
func (e *entry) setReason(r string) {
	if r == "" {
		e.reason.Store(nil)
		return
	}
	e.reason.Store(&r)
}

func (e *entry) healthReason() string {
	if p := e.reason.Load(); p != nil {
		return *p
	}
	return ""
}

// toSuspect marks a healthy world suspect (advisory; it keeps serving).
func (e *entry) toSuspect(reason string) {
	if e.health.CompareAndSwap(healthHealthy, healthSuspect) {
		e.setReason(reason)
	}
}

// healthGauges feeds the per-world health rows into /dev/metrics and
// agentrun -stats as the kernel's extra gauge source (installed by
// adopt).
func (e *entry) healthGauges() []telemetry.NamedCounter {
	return []telemetry.NamedCounter{
		{Name: "health.state", Value: uint64(e.health.Load())},
		{Name: "health.restarts", Value: e.restarts.Load()},
	}
}

// adopt wires a world (freshly created or just rebuilt) into the health
// facility: the push-path crash hook and the health gauge rows.
func (s *Server) adopt(e *entry, w *world.World) {
	if s.cfg.Health.Disabled {
		return
	}
	k := w.Kernel()
	k.SetCrashHook(func() { s.declareDead(e, "crash-freeze") })
	k.SetExtraGauges(e.healthGauges)
}

// rand is a lock-free xorshift64 over the server's seeded state: the
// jitter source (never the global generator, so runs are replayable).
func (s *Server) rand() uint64 {
	for {
		old := s.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if s.rng.CompareAndSwap(old, x) {
			return x
		}
	}
}

// backoff returns the wait before recovery attempt n: base·2^n capped
// at max, then jittered to [d/2, d) so simultaneous recoveries across
// tenants do not stampede the rebuild path in lockstep.
func (s *Server) backoff(attempt int) time.Duration {
	h := s.cfg.Health
	d := h.BackoffMax
	if attempt < 20 {
		if b := h.BackoffBase << uint(attempt); b < d {
			d = b
		}
	}
	if d <= 1 {
		return d
	}
	half := uint64(d / 2)
	return time.Duration(half + s.rand()%half)
}

// watchdog is the server's single sweep loop, started by New unless
// health is disabled and stopped by Shutdown before worlds close.
func (s *Server) watchdog() {
	defer s.wdWG.Done()
	t := time.NewTicker(s.cfg.Health.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.wdStop:
			return
		case now := <-t.C:
			s.sweep(now)
		}
	}
}

// sweep evaluates every hosted world once. The table is snapshotted
// under Server.mu; all verdicts run outside it.
func (s *Server) sweep(now time.Time) {
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.worlds))
	for _, e := range s.worlds {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	for _, e := range entries {
		s.check(e, now)
	}
}

// check runs the state machine for one world.
func (s *Server) check(e *entry, now time.Time) {
	switch e.health.Load() {
	case healthParked:
		return
	case healthDead:
		// Normally declareDead already spawned the recovery; re-kick in
		// case a previous loop aborted (e.g. a drain that was undone by
		// a test restarting the server is impossible, but a failed CAS
		// race is not).
		s.startRecovery(e)
		return
	}
	w := e.w.Load()
	if w == nil {
		return
	}
	if w.Crashed() {
		s.declareDead(e, "crash-freeze")
		return
	}
	k := w.Kernel()
	if jw := k.Journal(); jw != nil {
		if err := jw.Err(); err != nil {
			s.declareDead(e, "journal: "+err.Error())
			return
		}
	}
	h := s.cfg.Health
	if start := e.sessStartNs.Load(); start != 0 && h.SessionDeadline > 0 {
		age := now.Sub(time.Unix(0, start))
		if age > 2*h.SessionDeadline {
			s.declareDead(e, "session wedged")
			return
		}
		if age > h.SessionDeadline {
			e.toSuspect("session over deadline")
			return
		}
	}
	if sup := k.Supervisor(); sup != nil {
		if q := sup.QuarantinedLayers(); len(q) > 0 {
			e.toSuspect("quarantined: " + strings.Join(q, ","))
			// A quarantined world still answers probes; fall through so
			// a wedged one is caught below.
		}
	}
	if e.sessInflight.Load() == 0 &&
		now.UnixNano()-e.lastProbeNs.Load() >= int64(h.ProbeInterval) {
		s.probe(e, w)
	}
}

// probe runs one liveness session through the normal Exec path, off the
// watchdog goroutine so a wedged world cannot stall the sweep. Probes
// bypass the HTTP handler and count into the probe counters only, never
// the tenant's session counters.
func (s *Server) probe(e *entry, w *world.World) {
	if !e.probing.CompareAndSwap(false, true) {
		return
	}
	e.lastProbeNs.Store(time.Now().UnixNano())
	h := s.cfg.Health
	go func() {
		defer e.probing.Store(false)
		done := make(chan error, 1)
		go func() { done <- runProbe(w, h.ProbeArgv) }()
		select {
		case err := <-done:
			s.probes.Add(1)
			if err == nil {
				e.probeOK(w)
				return
			}
			s.probeFails.Add(1)
			if w.Dying() || e.w.Load() != w {
				return // already condemned or replaced
			}
			s.declareDead(e, "probe: "+err.Error())
		case <-time.After(h.ProbeTimeout):
			s.probes.Add(1)
			s.probeFails.Add(1)
			// Only the idle case is the probe's verdict: if a tenant
			// session arrived while the probe was queued, the session
			// deadline owns the wedge decision.
			if e.sessInflight.Load() == 0 && e.w.Load() == w {
				s.declareDead(e, "probe timeout")
			}
		}
	}()
}

// runProbe executes the probe session and converts any non-clean result
// into an error.
func runProbe(w *world.World, argv []string) error {
	res, err := w.Exec(world.ExecRequest{Argv: argv})
	if err != nil {
		return err
	}
	if !res.Exited() {
		return fmt.Errorf("probe killed by %s", res.Signal)
	}
	if res.Status != 0 {
		return fmt.Errorf("probe exit status %d", res.Status)
	}
	return nil
}

// probeOK clears an advisory suspect state once the cause is gone.
func (e *entry) probeOK(w *world.World) {
	if e.health.Load() != healthSuspect {
		return
	}
	if sup := w.Kernel().Supervisor(); sup != nil && len(sup.QuarantinedLayers()) > 0 {
		return // still quarantined; stay suspect
	}
	if e.health.CompareAndSwap(healthSuspect, healthHealthy) {
		e.setReason("")
	}
}

// declareDead moves a world to dead (idempotent — late signals for an
// already-dead or parked world are dropped), condemns it so in-flight
// and queued sessions fail fast, and spawns the recovery loop. Safe
// from any goroutine, including guest syscall goroutines via the crash
// hook: it takes no locks.
func (s *Server) declareDead(e *entry, reason string) {
	for {
		st := e.health.Load()
		if st == healthDead || st == healthParked {
			return
		}
		if e.health.CompareAndSwap(st, healthDead) {
			break
		}
	}
	e.setReason(reason)
	s.deaths.Add(1)
	if w := e.w.Load(); w != nil {
		if reg := w.Telemetry(); reg != nil {
			reg.RecordFileEvent(0, "health.dead", reason, "", -1, 0)
		}
		w.Kill()
	}
	s.logf("worldd: %s dead: %s", e.ID, reason)
	s.startRecovery(e)
}

// startRecovery spawns the recovery loop for a dead world, once.
func (s *Server) startRecovery(e *entry) {
	if s.cfg.Health.Disabled || s.isDraining() {
		return
	}
	if !e.recovering.CompareAndSwap(false, true) {
		return
	}
	s.recWG.Add(1)
	go s.recoverLoop(e)
}

// recoverLoop rebuilds one dead world: backoff (jittered, exponential),
// budget check, teardown of the old incarnation (Kill + Close — the
// close seals the journal), then a fork of the base with journal replay
// and fsck gate, as on create. A failed rebuild consumes budget and retries; an exhausted
// budget parks the tenant (terminal until DELETE). The loop aborts
// cleanly on drain or DELETE.
func (s *Server) recoverLoop(e *entry) {
	defer s.recWG.Done()
	defer e.recovering.Store(false)
	h := s.cfg.Health
	for attempt := 0; ; attempt++ {
		if s.isDraining() {
			return
		}
		d := s.backoff(attempt)
		e.retryAtNs.Store(time.Now().Add(d).UnixNano())
		if d > 0 {
			select {
			case <-time.After(d):
			case <-s.wdStop:
				return
			}
		}
		e.mu.Lock()
		if e.gone || s.isDraining() {
			e.mu.Unlock()
			return
		}
		if !e.noteAttemptLocked(time.Now(), h) {
			// Seal the corpse before parking: a parked tenant lingers
			// until DELETE, and its journal file must not stay open
			// (Close is idempotent, so racing an earlier teardown is
			// fine).
			if old := e.w.Load(); old != nil {
				old.Kill()
				old.Close()
			}
			s.parkLocked(e)
			e.mu.Unlock()
			return
		}
		old := e.w.Load()
		start := time.Now()
		if old != nil {
			old.Kill()
			old.Close()
		}
		nw, err := world.Fork(s.base, e.spec)
		if err != nil {
			e.mu.Unlock()
			s.logf("worldd: %s rebuild failed: %v", e.ID, err)
			continue
		}
		s.adopt(e, nw)
		e.w.Store(nw)
		e.restarts.Add(1)
		e.rebuildNs.Add(int64(time.Since(start)))
		e.setReason("")
		e.health.Store(healthHealthy)
		e.mu.Unlock()
		s.recoveries.Add(1)
		if reg := nw.Telemetry(); reg != nil {
			reg.RecordFileEvent(0, "health.recovered", e.ID, "", -1, 0)
		}
		s.logf("worldd: %s recovered (restart %d)", e.ID, e.restarts.Load())
		return
	}
}

// noteAttemptLocked records one recovery attempt and reports whether
// the budget allows it. Caller holds e.mu.
func (e *entry) noteAttemptLocked(now time.Time, h HealthConfig) bool {
	cut := now.Add(-h.RestartWindow)
	kept := e.attempts[:0]
	for _, t := range e.attempts {
		if t.After(cut) {
			kept = append(kept, t)
		}
	}
	e.attempts = append(kept, now)
	return len(e.attempts) <= h.RestartBudget
}

// parkLocked retires a tenant whose restart budget is exhausted: the
// state is terminal until DELETE, sessions get 503 + Retry-After, and
// the event is recorded on the (dead) world's flight ring when it has
// one. Caller holds e.mu.
func (s *Server) parkLocked(e *entry) {
	e.health.Store(healthParked)
	e.setReason("restart budget exhausted")
	s.parks.Add(1)
	if w := e.w.Load(); w != nil {
		if reg := w.Telemetry(); reg != nil {
			reg.RecordFileEvent(0, "health.parked", e.ID, "", -1, 0)
		}
	}
	s.logf("worldd: %s parked: restart budget exhausted", e.ID)
}

// admitState enforces one tenant's AdmissionSpec at the exec front
// door: a concurrent-session cap (lock-free) and a token bucket
// (refilled lazily under a per-tenant mutex — two atomics and a short
// critical section, nothing shared across tenants).
type admitState struct {
	max   int64
	rate  float64
	burst float64

	inflight atomic.Int64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// newAdmitState builds the enforcement state, or nil when the spec
// declares no enforceable budget.
func newAdmitState(a *world.AdmissionSpec) *admitState {
	if a == nil || (a.MaxSessions <= 0 && a.Rate <= 0) {
		return nil
	}
	st := &admitState{max: int64(a.MaxSessions), rate: a.Rate}
	if a.Rate > 0 {
		st.burst = float64(a.Burst)
		if st.burst < 1 {
			st.burst = math.Ceil(a.Rate)
			if st.burst < 1 {
				st.burst = 1
			}
		}
		st.tokens = st.burst
		st.last = time.Now()
	}
	return st
}

// acquire admits or rejects one session. On true the caller must
// release() when the session ends.
func (a *admitState) acquire(now time.Time) (bool, string) {
	if a.max > 0 && a.inflight.Add(1) > a.max {
		a.inflight.Add(-1)
		return false, "concurrent session cap reached"
	}
	if a.rate > 0 {
		a.mu.Lock()
		a.tokens += now.Sub(a.last).Seconds() * a.rate
		if a.tokens > a.burst {
			a.tokens = a.burst
		}
		a.last = now
		if a.tokens < 1 {
			a.mu.Unlock()
			if a.max > 0 {
				a.inflight.Add(-1)
			}
			return false, "rate limit exceeded"
		}
		a.tokens--
		a.mu.Unlock()
	}
	return true, ""
}

// release returns a concurrent-session slot.
func (a *admitState) release() {
	if a.max > 0 {
		a.inflight.Add(-1)
	}
}

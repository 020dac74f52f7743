package world

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"interpose/internal/telemetry"
)

// Pool keeps N pre-forked members of one template world so that
// acquiring a session world is a stack pop. The template is the
// caller's: a booted world (typically bare — Register and Setup only)
// that every member is a Fork of, and that several pools may share. The
// pool never closes it; the caller closes the template after every pool
// built on it. A member's fork — an empty overlay on the template's
// frozen image plus the member's facility set-up — runs in NewPoolFrom
// and in the asynchronous refiller rather than in Acquire.
//
// Handout is LIFO: the most recently forked member is the one whose
// structures are most likely still cache-warm. Members are consumed,
// not returned — a used world carries tenant state, and a fresh fork is
// cheaper than any scrub would be. Close the acquired world as usual
// when the session ends; Close the pool to tear down the warm stack.
//
// Acquire on an empty pool forks inline (a miss): a fork costs the same
// whatever the template's size, since members share its frozen image.
// Every acquire (hit or miss) kicks the refiller if it is not already
// running, so the stack climbs back to target in the background.
type Pool struct {
	spec     Spec
	target   int
	template *World
	owned    *World // template booted by NewPool, closed by Close; nil otherwise

	mu        sync.Mutex
	warm      []*World // LIFO: acquire pops, refill pushes
	refilling bool
	closed    bool
	lastErr   error // latest background refill failure, surfaced by Close

	wg sync.WaitGroup

	hits     atomic.Uint64
	misses   atomic.Uint64
	refills  atomic.Uint64
	refillNs atomic.Int64 // total ns spent forking in the background
}

// PoolStats is a point-in-time view of a pool's gauges.
type PoolStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Refills uint64 `json:"refills"`
	Size    int    `json:"size"`
	Target  int    `json:"target"`
	// RefillNs is the mean nanoseconds per background refill fork.
	RefillNs int64 `json:"refill_ns"`
}

// NewPoolFrom pre-warms target forks of template synchronously, so the
// first Acquire already hits. spec is the MEMBER spec: every acquired
// world gets its declared facilities (telemetry, tracer, journal,
// agents). The template must stay open, and quiesced, for the pool's
// lifetime — members fork from it on every refill and miss.
//
// Restore specs are refused (a pool's members come from the template,
// not a checkpoint), as are file-backed journals: one journal file
// backs one live world, which is irreconcilable with N identical
// members. JournalMem is fine — each member gets its own store.
func NewPoolFrom(template *World, spec Spec, target int) (*Pool, error) {
	if target < 1 {
		return nil, fmt.Errorf("world: pool %q: target %d, want >= 1", spec.Name, target)
	}
	if spec.RestorePath != "" || spec.RestoreFrom != nil {
		return nil, fmt.Errorf("world: pool %q: cannot pool a restore spec", spec.Name)
	}
	if spec.JournalPath != "" {
		return nil, fmt.Errorf("world: pool %q: file journals are per-world; pooled members must use journal_mem", spec.Name)
	}
	p := &Pool{spec: spec, target: target, template: template}
	for i := 0; i < target; i++ {
		w, err := Fork(template, spec)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("world: pool %q: warm: %w", spec.Name, err)
		}
		p.warm = append(p.warm, w)
	}
	return p, nil
}

// NewPool boots a bare template from spec (Register and Setup only) and
// pools forks of it; unlike NewPoolFrom, Close also closes that
// template. Callers that host more than one pool, or also fork worlds
// of their own, boot one template and use NewPoolFrom instead.
func NewPool(spec Spec, target int) (*Pool, error) {
	tmpl, err := Boot(Spec{
		Name:     spec.Name + "/template",
		Register: spec.Register,
		Setup:    spec.Setup,
	})
	if err != nil {
		return nil, fmt.Errorf("world: pool %q: template: %w", spec.Name, err)
	}
	p, err := NewPoolFrom(tmpl, spec, target)
	if err != nil {
		tmpl.Close()
		return nil, err
	}
	p.owned = tmpl
	return p, nil
}

// Template returns the world the pool forks its members from (for
// fleet-level inspection; never exec on it).
func (p *Pool) Template() *World { return p.template }

// Acquire hands out a warm world (LIFO), or forks one inline when the
// stack is empty. Either way the background refiller is kicked so the
// stack returns to target off the request path. The caller owns the
// world: run sessions on it and Close it when done — it does not return
// to the pool.
func (p *Pool) Acquire() (*World, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("world: pool %q: acquire on closed pool", p.spec.Name)
	}
	if n := len(p.warm); n > 0 {
		w := p.warm[n-1]
		p.warm = p.warm[:n-1]
		p.kickRefillLocked()
		p.mu.Unlock()
		p.hits.Add(1)
		w.Kernel().AddExtraGauges(p.Gauges)
		return w, nil
	}
	p.kickRefillLocked()
	p.mu.Unlock()
	p.misses.Add(1)
	w, err := Fork(p.template, p.spec)
	if err != nil {
		return nil, err
	}
	w.Kernel().AddExtraGauges(p.Gauges)
	return w, nil
}

// kickRefillLocked starts the refiller unless one is already running.
// Caller holds p.mu.
func (p *Pool) kickRefillLocked() {
	if p.refilling || p.closed {
		return
	}
	p.refilling = true
	p.wg.Add(1)
	go p.refill()
}

// refill forks members until the warm stack is back at target (or the
// pool closes, or a fork fails). One refiller runs at a time.
func (p *Pool) refill() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		if p.closed || len(p.warm) >= p.target {
			p.refilling = false
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()

		start := time.Now()
		w, err := Fork(p.template, p.spec)
		d := time.Since(start)

		p.mu.Lock()
		if err != nil {
			p.lastErr = err
			p.refilling = false
			p.mu.Unlock()
			return
		}
		p.refills.Add(1)
		p.refillNs.Add(int64(d))
		if p.closed {
			p.mu.Unlock()
			w.Close()
			return
		}
		p.warm = append(p.warm, w)
		p.mu.Unlock()
	}
}

// Stats returns the pool's current gauges.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	size := len(p.warm)
	p.mu.Unlock()
	s := PoolStats{
		Hits:    p.hits.Load(),
		Misses:  p.misses.Load(),
		Refills: p.refills.Load(),
		Size:    size,
		Target:  p.target,
	}
	if s.Refills > 0 {
		s.RefillNs = p.refillNs.Load() / int64(s.Refills)
	}
	return s
}

// Gauges renders the pool's stats as telemetry counter rows. Acquire
// installs this on each handed-out world's kernel, so a pooled tenant's
// /dev/metrics (and agentrun -stats) shows its pool's health alongside
// the kernel cache gauges.
func (p *Pool) Gauges() []telemetry.NamedCounter {
	s := p.Stats()
	return []telemetry.NamedCounter{
		{Name: "pool.hit", Value: s.Hits},
		{Name: "pool.miss", Value: s.Misses},
		{Name: "pool.size", Value: uint64(s.Size)},
		{Name: "pool.refill.ns", Value: uint64(s.RefillNs)},
	}
}

// Close tears the pool down: the refiller is stopped and awaited and
// every warm member closed. The template is left open — it is the
// caller's (NewPoolFrom) — unless NewPool booted it. Worlds already
// acquired are the caller's to close. The first teardown error is
// returned; a lingering background-refill failure is surfaced if
// nothing else went wrong.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()

	// Wait out the refiller BEFORE snapshotting the warm stack: the
	// refiller re-checks closed under p.mu on every iteration, so once
	// the wait returns no fork can start again — and any member it
	// pushed (or failure it recorded) during the wait is in warm and
	// lastErr, not silently dropped.
	p.wg.Wait()

	p.mu.Lock()
	warm := p.warm
	p.warm = nil
	lastErr := p.lastErr
	p.mu.Unlock()

	var firstErr error
	for _, w := range warm {
		if err := w.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if p.owned != nil {
		if err := p.owned.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = lastErr
	}
	return firstErr
}

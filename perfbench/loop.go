package main

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// window is the length of the windows sessions per second, latency p50
// and CPU per session are taken over. The benchmark machine's speed dips
// for a second or so every few seconds; the median over windows keeps a
// dip from moving a run's figures. The load stops between windows, so
// that an untraced run can time a set-up there.
const window = time.Second

// minGroup is the fewest sessions latency p99 is taken over, so that at
// least ten sessions lie beyond it: consecutive windows are grouped until
// they hold that many.
const minGroup = 1000

// lagKeep is how many generator lags a phase keeps, a uniform sample of
// all of them.
const lagKeep = 4096

// phase is one measured stretch of a workload: its sessions, its windows
// and the process's costs over it (client and daemon share the process).
//
// Sessions are folded into the open window as they end, and the phase
// holds only the latencies of the open window and of the last two
// groups. A record of every session would grow the heap the daemon's
// collector paces against as the run went on, and make later windows
// cheaper than earlier ones.
type phase struct {
	mu     sync.Mutex
	n, ok  int
	failed int
	errs   []string // the first few failures
	// lag samples the generator's own time between sessions (ms): from a
	// reply to the next request on the same connection; lags counts every
	// session sampled from.
	lag  []float64
	lags int64

	// The open window: latencies in ms of the sessions that ended in it
	// (+Inf for a failed one, so it counts as missing every latency
	// limit) and how many succeeded.
	lat   []float64
	winOK int
	// group gathers closed windows' latencies toward the next p99; prev
	// is the last full group, held back so a short final one can join it.
	group, prev []float64

	// Per window: sessions completed per second, and latency p50 (ms) and
	// CPU ms per session over the sessions that ended in it. Per group:
	// latency p99 (ms).
	perS, p50, cpu, p99 []float64

	// Totals over the windows, pauses left out.
	elapsed time.Duration
	cpuUsed time.Duration
	alloc   uint64 // bytes allocated, pauses included
	gcs     uint32 // collections, pauses included
}

func (p *phase) attempted() int { return p.n }

// record folds in one session that took d from when it was sent.
func (p *phase) record(d time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n++
	if err == nil {
		p.lat = append(p.lat, ms(d))
		p.ok++
		p.winOK++
		return
	}
	p.lat = append(p.lat, math.Inf(1))
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

// addLag samples how late the generator sent one session.
func (p *phase) addLag(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lags++
	if len(p.lag) < lagKeep {
		p.lag = append(p.lag, ms(d))
	} else if i := rand.Int63n(p.lags); i < lagKeep {
		p.lag[i] = ms(d)
	}
}

// closeWindow closes the open window, which lasted took and used cpu,
// and rolls the group over if it is full.
func (p *phase) closeWindow(took, cpu time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.perS = append(p.perS, float64(p.winOK)/took.Seconds())
	if len(p.lat) > 0 {
		p.cpu = append(p.cpu, ms(cpu)/float64(len(p.lat)))
		p.group = append(p.group, p.lat...)
		p.p50 = append(p.p50, quantile(p.lat, 0.5))
	}
	p.lat, p.winOK = p.lat[:0], 0
	p.elapsed += took
	p.cpuUsed += cpu
	if len(p.group) >= minGroup {
		if p.prev != nil {
			p.p99 = append(p.p99, quantile(p.prev, 0.99))
		}
		p.prev, p.group = p.group, p.prev[:0]
	}
}

// finish takes the last latency p99s; a last group short of minGroup
// joins the one before.
func (p *phase) finish() {
	switch {
	case p.prev == nil:
		p.p99 = append(p.p99, quantile(p.group, 0.99))
	case len(p.group) < minGroup:
		p.p99 = append(p.p99, quantile(append(p.prev, p.group...), 0.99))
	default:
		p.p99 = append(p.p99, quantile(p.prev, 0.99), quantile(p.group, 0.99))
	}
}

// measure runs w on e for d, as whole windows: each runs the loop for its
// length and lets the sessions in flight end. After each window pause, if
// set, runs with the load stopped and outside every timing but alloc and
// gcs; an error from it ends the phase.
func measure(e *env, w *workload, seed int64, d time.Duration, pause func() error) (*phase, error) {
	m0 := memStats()
	p := &phase{}
	g := newGenerator(seed)
	n := max(1, int((d+window/2)/window))
	for i := 0; i < n; i++ {
		start, c0 := time.Now(), cpuTime()
		g.closedLoop(e, w, start, d/time.Duration(n), p)
		p.closeWindow(time.Since(start), cpuTime()-c0)
		if pause != nil {
			if err := pause(); err != nil {
				return nil, err
			}
		}
	}
	p.finish()
	m1 := memStats()
	p.alloc, p.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	return p, nil
}

// warmup is how long w runs untimed before a measurement, so that the
// heap, caches and pools settle into the steady state a long-running
// daemon is in.
func warmup(d time.Duration) time.Duration { return min(d/5, 3*time.Second) }

// steady warms w up, then measures it for d with pause between windows.
// The warm-up's sessions are checked like any other.
func steady(e *env, w *workload, seed int64, d time.Duration, pause func() error) (warm, p *phase, err error) {
	if warm, err = measure(e, w, seed, warmup(d), nil); err != nil {
		return nil, nil, err
	}
	p, err = measure(e, w, seed, d, pause)
	return warm, p, err
}

// generator is a phase's input state, carried from window to window: one
// seeded worker per connection.
type generator struct {
	workers []*worker
}

func newGenerator(seed int64) *generator {
	g := &generator{}
	for i := 0; i < conns; i++ {
		g.workers = append(g.workers, &worker{id: i, rng: rand.New(rand.NewSource(seed*conns + int64(i)))})
	}
	return g
}

// closedLoop runs conns connections, each sending its next session as
// soon as the previous one returns, until d has passed.
func (g *generator) closedLoop(e *env, w *workload, start time.Time, d time.Duration, p *phase) {
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, wk := range g.workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			last := time.Now()
			for ; last.Before(deadline); wk.n++ {
				begin := time.Now()
				p.addLag(begin.Sub(last))
				err := w.session(e, wk)
				last = time.Now()
				p.record(last.Sub(begin), err)
			}
		}(wk)
	}
	wg.Wait()
}

// Command perfbench is the repository's benchmark. It serves worldd
// in-process on a unix socket, the way cmd/worldd does, drives it from
// the same process over at most two connections, checks every response,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
//	perfbench --workload exec-light|build-agents|tenant-churn --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) reports the end-to-end metrics a client
// sees; it sets up many times through the run, each set-up from a
// collected heap, and reports the median set-up time. A
// traced run (--trace 1) reports the per-layer metrics: it runs the
// workload untraced for half the time, then — tenants with telemetry on,
// client and handler spans joined by request ID — traced for the other
// half, then cycles tenants through the daemon and probes the world,
// agent and journal layers directly. It writes every span to
// <dir>/spans-<workload>.jsonl. metrics.go lists each metric and, for
// per-layer ones, the end-to-end metric and workload it should move.
//
// Run it from the repository root with perfbench/run.sh, which builds it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"interpose/internal/worldd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// cycleReps is how many tenants per kind (pooled, booted) the traced run
// cycles through the daemon after its traced phase.
const cycleReps = 8

// opts is one run's configuration.
type opts struct {
	w         *workload
	seed      int64
	d         time.Duration
	dir, sock string
	ref       reference
}

// row is one printed metric.
type row struct {
	m    metric
	v    float64
	note string
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: exec-light, build-agents or tenant-churn")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for the daemon socket and the span file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := opts{seed: *seed, d: time.Duration(*seconds * float64(time.Second)), dir: *dir}
	for _, w := range workloads {
		if w.name == *name {
			o.w = w
		}
	}
	if o.w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if o.d <= 0 || (*traced != 0 && *traced != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	o.sock = filepath.Join(*dir, fmt.Sprintf("worldd-%d.sock", os.Getpid()))
	var err error
	if o.ref, err = takeReference(); err != nil {
		return fmt.Errorf("reference world: %w", err)
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s loop=closed conns=%d seed=%d seconds=%g trace=%d\n",
		o.w.name, conns, o.seed, *seconds, *traced)
	var rows []row
	var res result
	if *traced == 1 {
		rows, res, err = runTraced(o, stdout)
	} else {
		rows, res, err = runPlain(o)
	}
	if err != nil {
		return err
	}
	return emit(stdout, rows, res)
}

// runPlain sets up, then measures that set-up untraced for the run's
// length. After each measured window, with the load stopped, it sets up
// a second daemon on its own socket and closes it again: the speed of
// the benchmark machine swings over seconds, and set-ups spread through
// the run feel those swings as the windows do, where set-ups in a row
// would all land in one of them. setup_s is the median of all set-ups.
func runPlain(o opts) ([]row, result, error) {
	var setups []float64
	timed := func(sock string) (*env, error) {
		runtime.GC()
		start := time.Now()
		e, err := setup(o.w, sock, o.ref, nil, false)
		if err == nil {
			setups = append(setups, time.Since(start).Seconds())
		}
		return e, err
	}
	e, err := timed(o.sock)
	if err != nil {
		return nil, result{}, err
	}
	heap := settledHeap()
	warm, p, err := steady(e, o.w, o.seed, o.d, func() error {
		e2, err := timed(o.sock + ".setup")
		if err != nil {
			return err
		}
		return e2.close()
	})
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, result{}, err
	}
	n := p.attempted()
	windows := fmt.Sprintf("median of %d windows", len(p.perS))
	rows := []row{
		{find("setup_s"), median(setups), fmt.Sprintf("median of %d, one before the measurement and one after each window", len(setups))},
		{find("sessions_per_s"), median(p.perS), fmt.Sprintf("%s; whole run %.6g", windows, float64(p.ok)/p.elapsed.Seconds())},
		{find("latency_p50_ms"), median(p.p50), windows},
		{find("latency_p99_ms"), median(p.p99), fmt.Sprintf("median of %d groups of at least %d sessions; n=%d", len(p.p99), minGroup, n)},
		{find("cpu_ms_per_session"), median(p.cpu), fmt.Sprintf("%s; whole run %.6g", windows, ms(p.cpuUsed)/float64(n))},
		{find("setup_heap_mb"), float64(heap) / 1e6, ""},
	}
	res := tell(warm, p)
	rows = append(rows, row{errorRate, float64(res.Failed) / float64(res.Attempted), fmt.Sprintf("%d of %d, warm-up included", res.Failed, res.Attempted)})
	return rows, res, nil
}

// runTraced runs the workload untraced, then traced, then the probes,
// and reports the per-layer metrics.
func runTraced(o opts, stdout io.Writer) ([]row, result, error) {
	w, half := o.w, o.d/2
	e, err := setup(w, o.sock, o.ref, nil, false)
	if err != nil {
		return nil, result{}, err
	}
	baseWarm, base, err := steady(e, w, o.seed, half, nil)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, result{}, err
	}

	rec := newRecorder()
	if e, err = setup(w, o.sock, o.ref, rec, true); err != nil {
		return nil, result{}, err
	}
	l, trWarm, tr, err := traceDaemon(e, w, o.seed, half, rec)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, result{}, err
	}
	pr, err := runProbes(w, rec)
	if err != nil {
		return nil, result{}, err
	}
	rec.on.Store(false)
	path := filepath.Join(o.dir, "spans-"+w.name+".jsonl")
	if err := rec.write(path); err != nil {
		return nil, result{}, err
	}
	fmt.Fprintf(stdout, "# %d spans written to %s\n", len(rec.spans), path)

	t := rec.derive()
	cpuPer := func(p *phase) float64 { return ms(p.cpuUsed) / float64(p.attempted()) }
	rows := []row{
		{find("transport.self_us"), median(t.transportSelf), fmt.Sprintf("median, n=%d", len(t.transportSelf))},
		{find("worldd.handler_p50_us"), quantile(t.handler, 0.5), ""},
		{find("worldd.handler_p99_us"), quantile(t.handler, 0.99), fmt.Sprintf("n=%d", len(t.handler))},
		{find("worldd.self_us"), median(t.worlddSelf), "median"},
		{find("worldd.create_pooled_us"), median(t.lifecycle["create.pooled"]), fmt.Sprintf("median, n=%d", len(t.lifecycle["create.pooled"]))},
		{find("worldd.create_boot_us"), median(t.lifecycle["create.boot"]), fmt.Sprintf("median, n=%d", len(t.lifecycle["create.boot"]))},
		{find("worldd.delete_us"), median(t.lifecycle["delete"]), fmt.Sprintf("median, n=%d", len(t.lifecycle["delete"]))},
		{find("worldd.shed"), float64(l.shed), "traced phase"},
		{find("worldd.throttled"), float64(l.throttled), "traced phase"},
		{find("worldd.exec_errs"), float64(l.execErrs), "traced phase"},
		{find("worldd.status_5xx"), float64(l.status5xx), "traced phase"},
		{find("world.exec_p50_us"), quantile(t.exec, 0.5), ""},
		{find("world.exec_p99_us"), quantile(t.exec, 0.99), fmt.Sprintf("n=%d", len(t.exec))},
		{find("world.boot_us"), median(pr.boot), "median, direct"},
		{find("world.fork_us"), median(pr.fork), "median, direct"},
		{find("world.pool_acquire_us"), median(pr.acquire), "median, direct"},
		{find("world.close_us"), median(pr.close), "median, direct"},
		{find("world.pool.hit_ratio"), ratio(l.poolHits, l.poolMisses), fmt.Sprintf("%d of %d acquires", l.poolHits, l.poolHits+l.poolMisses)},
		{find("kernel.syscalls_per_session"), perSession(l.kc[kCalls], l.sessions), fmt.Sprintf("over %d sessions", l.sessions)},
		{find("kernel.syscall_errs_per_session"), perSession(l.kc[kErrs], l.sessions), ""},
		{find("kernel.exec_image_hit_ratio"), ratio(l.kc[kImgHit], l.kc[kImgMiss]), ""},
		{find("vfs.dentry_hit_ratio"), ratio(l.kc[kDentryHit], l.kc[kDentryMiss]), ""},
		{find("vfs.attr_hit_ratio"), ratio(l.kc[kAttrHit], l.kc[kAttrMiss]), ""},
	}
	for _, st := range probeStacks {
		rows = append(rows, row{find("agents." + st.label + ".overhead_us"), pr.overhead[st.label], "direct, vs bare"})
	}
	rows = append(rows,
		row{find("journal.records_per_session"), pr.records, "direct"},
		row{find("journal.flushes_per_session"), pr.flushes, "direct"},
		row{find("process.alloc_kb_per_session"), float64(base.alloc) / 1024 / float64(base.attempted()), "untraced phase"},
		row{find("process.gc_cycles"), float64(base.gcs), "untraced phase"},
		row{find("loadgen.lag_p99_ms"), quantile(base.lag, 0.99), fmt.Sprintf("untraced phase, sample of %d", len(base.lag))},
		row{find("trace.overhead_pct"), 100 * (cpuPer(tr)/cpuPer(base) - 1), "cpu_ms_per_session, traced vs untraced"},
	)
	res := tell(baseWarm, base, trWarm, tr)
	if l.verifyErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: verify:", l.verifyErr)
		res.Correct = false
	}
	return rows, res, nil
}

// layers are the figures the traced daemon phase yields beyond spans.
type layers struct {
	shed, throttled, execErrs, status5xx uint64
	kc                                   kcounts
	sessions                             int // sessions kc covers
	poolHits, poolMisses                 uint64
	verifyErr                            error
}

// traceDaemon warms the daemon up untraced, turns the recorder on and
// measures the traced phase, then cycles tenants through the daemon and
// runs the workload's end-of-run checks. The recorder stays on for the
// probes that follow.
func traceDaemon(e *env, w *workload, seed int64, d time.Duration, rec *recorder) (*layers, *phase, *phase, error) {
	warm, err := measure(e, w, seed, warmup(d), nil)
	if err != nil {
		return nil, nil, nil, err
	}
	rec.on.Store(true)
	m0, err := e.c.metrics()
	if err != nil {
		return nil, nil, nil, err
	}
	s0 := e.c.status5xx.Load()
	p, err := measure(e, w, seed, d, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	m1, err := e.c.metrics()
	if err != nil {
		return nil, nil, nil, err
	}
	l := &layers{
		shed:      m1.Shed - m0.Shed,
		throttled: m1.Throttled - m0.Throttled,
		execErrs:  m1.ExecErrs - m0.ExecErrs,
		status5xx: e.c.status5xx.Load() - s0,
	}
	// Kernel counters come from the fleet's telemetry across the phase.
	// A workload without long-lived tenants deletes each world before the
	// fleet view can see it, so it is counted from the cycles below, one
	// live tenant at a time.
	var snap func() error
	if len(w.tenants) > 0 {
		l.kc, l.sessions = countsOf(m1.Telemetry).sub(countsOf(m0.Telemetry)), p.ok
	} else {
		snap = func() error {
			m, err := e.c.metrics()
			if err == nil {
				l.kc, l.sessions = l.kc.add(countsOf(m.Telemetry)), l.sessions+1
			}
			return err
		}
	}
	for i := 0; i < 2*cycleReps; i++ {
		if err := w.cycle(e, i, snap); err != nil {
			return nil, nil, nil, fmt.Errorf("tenant cycle: %w", err)
		}
	}
	if w.verify != nil {
		// The checks' own sessions stay out of the traced figures.
		rec.on.Store(false)
		l.verifyErr = w.verify(e)
		rec.on.Store(true)
	}
	// Pools live as long as the daemon, so their counters over the traced
	// phase and the cycles are the difference of two snapshots.
	m, err := e.c.metrics()
	if err != nil {
		return nil, nil, nil, err
	}
	h0, x0 := poolCounts(m0)
	h1, x1 := poolCounts(m)
	l.poolHits, l.poolMisses = h1-h0, x1-x0
	return l, warm, p, nil
}

// poolCounts sums the hits and misses of every warm pool.
func poolCounts(m worldd.Metrics) (hits, misses uint64) {
	for _, pl := range m.Pools {
		hits += pl.Hits
		misses += pl.Misses
	}
	return hits, misses
}

// tell totals the phases' sessions into a result. A run is correct only
// if no session failed, whether refused, lost in transport or answered
// wrongly.
func tell(phases ...*phase) result {
	res := result{Correct: true}
	for _, p := range phases {
		res.Correct = judge(p) && res.Correct
		res.Attempted += p.attempted()
		res.Failed += p.failed
	}
	return res
}

// judge prints a phase's failures to standard error and reports whether
// every session succeeded.
func judge(p *phase) bool {
	for _, e := range p.errs {
		fmt.Fprintln(os.Stderr, "perfbench: session failed:", e)
	}
	return p.failed == 0
}

// find looks a metric up by name in the tables.
func find(name string) metric {
	for _, m := range append(append([]metric{errorRate}, endToEnd...), perLayer...) {
		if m.name == name {
			return m
		}
	}
	panic("perfbench: no metric " + name)
}

// emit prints one line per metric — value, unit, how it was taken and,
// for a per-layer metric, what it should move — then the result line,
// which carries every metric but error_rate (failed/attempted already
// carry it). A
// figure that is not a finite number marks the run incorrect and is
// reported as 0.
func emit(out io.Writer, rows []row, res result) error {
	res.Metrics = make(map[string]value)
	for _, r := range rows {
		note := r.note
		if r.m.moves != "" {
			note = strings.TrimPrefix(note+"; moves "+r.m.moves, "; ")
		}
		fmt.Fprintf(out, "%-32s %-22s %-5s %s\n", r.m.name, strconv.FormatFloat(r.v, 'g', -1, 64), r.m.unit, note)
		if r.m == errorRate {
			continue
		}
		v := r.v
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s is %v\n", r.m.name, v)
			v, res.Correct = 0, false
		}
		res.Metrics[r.m.name] = value{Value: v, Unit: r.m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"interpose/internal/core"
	"interpose/internal/kernel"
)

// The scalability table ("scale"): the Table 3-3 make workload run with
// mk -j N for increasing N, on a kernel whose big lock has been split
// into per-object locks. Each parallel job is a separate interposed
// process hammering fork/exec/open/stat against shared directories, so
// the speedup from -j is a direct measurement of how much true
// concurrency the fine-grained kernel and per-inode VFS locking admit.
// On a single-CPU host the table still validates correctness (elapsed
// times stay flat rather than degrading); the speedup column only
// becomes meaningful with multiple scheduler threads available.
//
// One more row measures the pathname walk: a stat-heavy parallel
// workload (StatHeavyJobs guests each performing StatHeavyOps stat calls
// on the same path), which resolves every call without a lock.
var scaleTable = Table{Name: "scale", run: runScale}

// ScaleJobs is the job-count ladder of the scale table.
var ScaleJobs = []int{1, 2, 4, 8}

// StatHeavyJobs is the parallelism of the stat-heavy workload rows.
const StatHeavyJobs = 4

// StatHeavyOps is the number of stat calls each parallel job performs.
const StatHeavyOps = 20000

// runScale measures mk -j N over the job ladder for the bare kernel, and
// at -j 4 under the trace agent stack (showing interposition composes
// with concurrency), then the stat-heavy rows; a row is named
// j<jobs>-<configuration>.
func runScale(w io.Writer, runs, programs int) ([]BenchEntry, error) {
	type env struct {
		k      *kernel.Kernel
		agents []core.Agent
		jobs   int
	}
	type cfg struct {
		jobs  int
		stack string
	}
	var cfgs []cfg
	for _, j := range ScaleJobs {
		cfgs = append(cfgs, cfg{j, "none"})
	}
	cfgs = append(cfgs, cfg{4, "trace"})
	envs := map[string]env{}
	var makeRows []string
	for _, c := range cfgs {
		k, err := World()
		if err != nil {
			return nil, err
		}
		if err := SetupMake(k, programs); err != nil {
			return nil, err
		}
		agents, err := AgentStack(k, c.stack)
		if err != nil {
			return nil, err
		}
		row := fmt.Sprintf("j%d-%s", c.jobs, c.stack)
		envs[row] = env{k, agents, c.jobs}
		makeRows = append(makeRows, row)
	}
	makes, err := interleavedMean(runs, makeRows, func(row string) (time.Duration, error) {
		e := envs[row]
		if err := CleanMake(e.k, programs); err != nil {
			return 0, err
		}
		return RunMakeJ(e.k, e.agents, e.jobs)
	})
	if err != nil {
		return nil, err
	}

	k, err := World()
	if err != nil {
		return nil, err
	}
	stats, err := interleavedMean(runs, []string{fmt.Sprintf("j%d-stat", StatHeavyJobs)}, func(string) (time.Duration, error) {
		start := time.Now()
		procs := make([]*kernel.Proc, 0, StatHeavyJobs)
		argv := []string{"bench", "stat", fmt.Sprint(StatHeavyOps)}
		for j := 0; j < StatHeavyJobs; j++ {
			p, err := core.Launch(k, nil, "/bin/bench", argv, nil)
			if err != nil {
				return 0, err
			}
			procs = append(procs, p)
		}
		for _, p := range procs {
			k.WaitExit(p)
		}
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "Scale: parallel make of %d programs (mk -j N), GOMAXPROCS=%d\n\n",
		programs, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "  %-6s %-12s %12s %10s\n", "Jobs", "Agent Name", "Elapsed", "Speedup")
	printSpeedups(w, makes, makes[0])
	fmt.Fprintf(w, "  %-6d %-12s %12s   (%d guests x %d stat calls)\n", StatHeavyJobs, "stat",
		fmtDur(time.Duration(stats[0].NsPerOp)), StatHeavyJobs, StatHeavyOps)
	fmt.Fprintln(w)
	return append(makes, stats...), nil
}

// printSpeedups writes scale rows with their speedup over base.
func printSpeedups(w io.Writer, es []BenchEntry, base BenchEntry) {
	for _, e := range es {
		jobs, cfg, _ := strings.Cut(strings.TrimPrefix(e.Row, "j"), "-")
		speedup := 0.0
		if e.NsPerOp > 0 {
			speedup = float64(base.NsPerOp) / float64(e.NsPerOp)
		}
		fmt.Fprintf(w, "  %-6s %-12s %12s %9.2fx\n", jobs, cfg, fmtDur(time.Duration(e.NsPerOp)), speedup)
	}
}

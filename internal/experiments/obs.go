package experiments

import (
	"fmt"
	"io"
	"time"

	"interpose/internal/telemetry"
)

// The observability table ("obs"): the Table 3-3 make workload run under
// the trace agent with a telemetry registry installed, printing where
// the time went per instance of the system interface (kernel vs each
// agent layer) and the per-syscall latency distribution.
var obsTable = Table{Name: "obs", run: runObs}

func runObs(w io.Writer, _, programs int) ([]BenchEntry, error) {
	k, err := World()
	if err != nil {
		return nil, err
	}
	if err := SetupMake(k, programs); err != nil {
		return nil, err
	}
	agents, err := AgentStack(k, "trace")
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	k.SetTelemetry(reg)
	defer k.SetTelemetry(nil)
	elapsed, err := RunMake(k, agents)
	if err != nil {
		return nil, err
	}
	printObs(w, programs, elapsed, reg.Snapshot())
	return []BenchEntry{entry("make-under-trace", elapsed)}, nil
}

// printObs writes the observability table: per-layer attribution of the
// run's wall time, then the busiest system calls with their latency
// distribution summaries.
func printObs(w io.Writer, programs int, elapsed time.Duration, snap telemetry.Snapshot) {
	fmt.Fprintf(w, "Observability: make %d programs under the trace agent (elapsed %s)\n\n",
		programs, fmtDur(elapsed))

	fmt.Fprintf(w, "  Per-layer attribution (self time, exclusive of lower instances)\n")
	var total time.Duration
	for _, l := range snap.Layers {
		total += l.Self
	}
	fmt.Fprintf(w, "  %-12s %12s %14s %10s\n", "Instance", "Calls", "Self", "% of self")
	for _, l := range snap.Layers {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(l.Self) / float64(total)
		}
		fmt.Fprintf(w, "  %-12s %12d %14s %9.1f%%\n", l.Name, l.Calls, fmtDur(l.Self), pct)
	}

	fmt.Fprintf(w, "\n  Busiest system calls (%d total, %d errors)\n", snap.Total, snap.Errs)
	fmt.Fprintf(w, "  %-16s %10s %8s %10s %10s %10s\n", "call", "count", "errs", "mean", "p99", "max")
	rows := snap.Syscalls
	if len(rows) > 12 {
		rows = rows[:12]
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %10d %8d %10s %10s %10s\n",
			r.Name, r.Count, r.Errs, fmtDur(r.Mean), fmtDur(r.P99), fmtDur(r.Max))
	}
	fmt.Fprintln(w)
}

package experiments

import (
	"io"

	spantrace "interpose/internal/trace"
)

// The tracing cost table ("trace"): what the causal span tracer costs on
// the system call fast path. The contract under test is pay-per-use —
// with no tracer installed the only cost is one atomic pointer load over
// sup's off row (off), an installed tracer sampling at 1% costs one
// xorshift draw on the unsampled majority (sampled), and only fully
// sampled calls pay for clock reads and span recording (full). Off and
// sampled are guarded against the baseline.
var traceTable = Table{Name: "trace", run: runTrace,
	Guards: []string{"getpid()/off", "getpid()/sampled"}}

// runTrace measures each configuration in a fresh world so sampling
// state and span buffers cannot leak across configurations.
func runTrace(w io.Writer, _, _ int) ([]BenchEntry, error) {
	cfgs := []struct {
		row    string
		sample float64 // < 0 means no tracer installed
	}{
		{row: "getpid()/off", sample: -1},
		{row: "getpid()/sampled", sample: 0.01},
		{row: "getpid()/full", sample: 1},
	}
	var es []BenchEntry
	for _, c := range cfgs {
		k, err := World()
		if err != nil {
			return nil, err
		}
		if c.sample >= 0 {
			k.SetSpanTracer(spantrace.NewTracer(spantrace.Config{
				Sample:     c.sample,
				TailErrors: c.sample < 1,
			}))
		}
		es = append(es, entry(c.row, getpidCost(k, false)))
	}
	printRows(w, "Tracing cost (getpid, host-driven, per call):", es, nil)
	return es, nil
}

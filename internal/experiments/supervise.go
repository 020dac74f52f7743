package experiments

import (
	"io"

	"interpose/internal/kernel"
)

// The supervision cost table ("sup"): what the agent supervisor costs at
// each point of the dispatch path. The contract under test is
// pay-per-use — installing a supervisor must not slow the uninterposed
// fast path (idle vs off, one atomic plan load), and the supervised
// interposed leg should add only the containment bookkeeping (strict vs
// layer). Both idle and strict are guarded against the baseline.
var supTable = Table{Name: "sup", run: runSup,
	Guards: []string{"getpid()/idle", "getpid()/strict"}}

// runSup measures each configuration in a fresh world so caches and
// plans cannot leak across configurations.
func runSup(w io.Writer, _, _ int) ([]BenchEntry, error) {
	cfgs := []struct {
		row       string
		layer     bool // install a pass-through layer on the call path
		supervise bool
	}{
		{row: "getpid()/off"},
		{row: "getpid()/idle", supervise: true},
		{row: "getpid()/layer", layer: true},
		{row: "getpid()/strict", layer: true, supervise: true},
	}
	var es []BenchEntry
	for _, c := range cfgs {
		k, err := World()
		if err != nil {
			return nil, err
		}
		if c.supervise {
			k.SetSupervisor(kernel.NewSupervisor(k, kernel.SupervisorConfig{Mode: kernel.SuperviseStrict}))
		}
		es = append(es, entry(c.row, getpidCost(k, c.layer)))
	}
	printRows(w, "Supervision cost (getpid, host-driven, per call):", es, nil)
	return es, nil
}

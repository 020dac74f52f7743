package experiments

import (
	"fmt"
	"io"
	"time"
)

// Table is one entry of the experiments registry: a table of the paper's
// evaluation, or one of this reproduction's additions, together with the
// -check gates on its rows. Adding a table means adding an entry to
// Tables; its guards and relations are declared in the entry.
type Table struct {
	Name string
	// Guards are rows checked against the baseline file: each may be at
	// most MaxRegress slower than its baseline value.
	Guards []string
	// Relations compare two rows of this table measured in the same run.
	Relations []Relation
	// run prints the table to w and returns its rows, Table left unset.
	run func(w io.Writer, runs, programs int) ([]BenchEntry, error)
}

// Tables is the registry, in the order tables run, print and appear in
// the bench JSON.
var Tables = []Table{
	table31, table32, table33, table34, table35, dfsTable, scaleTable, obsTable,
	supTable, traceTable, crashTable, worlddTable, poolTable, resilTable,
}

// Run measures the table, prints it to w, and returns its rows. runs is
// the number of timed repetitions per row of the tables that repeat;
// programs sizes the make workload.
func (t Table) Run(w io.Writer, runs, programs int) ([]BenchEntry, error) {
	es, err := t.run(w, runs, programs)
	if err != nil {
		return nil, fmt.Errorf("table %s: %w", t.Name, err)
	}
	for i := range es {
		es[i].Table = t.Name
	}
	return es, nil
}

// Select returns the named tables in registry order; "all" names every
// table. An unknown name is an error.
func Select(names []string) ([]Table, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []Table
	for _, t := range Tables {
		if want["all"] || want[t.Name] {
			out = append(out, t)
		}
		delete(want, t.Name)
	}
	delete(want, "all")
	for _, n := range names {
		if want[n] {
			return nil, fmt.Errorf("unknown table %q", n)
		}
	}
	return out, nil
}

// BenchEntry is one measured row of a table, exported by the bench JSON
// mode so successive runs can be diffed mechanically. NsPerOp holds the
// row's value in Unit: "ns" for every row entry makes, "B" for the worldd
// table's idle-mem/world row. Bench files written before rows carried a
// unit read back with Unit empty.
type BenchEntry struct {
	Table   string `json:"table"`
	Row     string `json:"row"`
	NsPerOp int64  `json:"ns_per_op"`
	Unit    string `json:"unit"`
}

// entry makes a row holding a duration.
func entry(row string, d time.Duration) BenchEntry {
	return BenchEntry{Row: row, NsPerOp: d.Nanoseconds(), Unit: "ns"}
}

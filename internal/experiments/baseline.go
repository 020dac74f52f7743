package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// The -check gate. Each registry entry declares its own gates beside its
// rows: Guards, absolute limits against a checked-in baseline file, and
// Relations, limits of one row against another row of the same run. The
// gate enforces every registered gate whatever subset of tables was
// measured, so a row that silently stops being measured fails rather
// than passes.

// MaxRegress is the allowed slowdown factor before a guard fails: 0.5
// means a guarded row may be at most 50% slower than its baseline.
const MaxRegress = 0.5

// Relation is a relational gate between two rows measured in the same
// run: Left must cost at most Factor times Right. Unlike the absolute
// guards, a relation compares two legs of the same noisy machine against
// each other, so it holds on any host. In a Table, Left and Right are
// rows of that table.
type Relation struct {
	Left, Right string
	Factor      float64 // Left <= Factor * Right
	Why         string
}

// gates returns every guard of tables as a "table:row" key, and every
// relation with its rows qualified the same way.
func gates(tables []Table) (guards []string, rels []Relation) {
	for _, t := range tables {
		for _, g := range t.Guards {
			guards = append(guards, t.Name+":"+g)
		}
		for _, r := range t.Relations {
			r.Left, r.Right = t.Name+":"+r.Left, t.Name+":"+r.Right
			rels = append(rels, r)
		}
	}
	return guards, rels
}

// Check enforces the gates of every registered table: measured guarded
// rows against baseline, then the relations among measured rows. The
// report lists every comparison made, and the error every failure of
// either kind.
func Check(baseline, measured []BenchEntry) (string, error) {
	return check(Tables, baseline, measured)
}

func check(tables []Table, baseline, measured []BenchEntry) (string, error) {
	base, got := byKey(baseline), byKey(measured)
	guards, rels := gates(tables)
	var report strings.Builder
	var failures []string

	fmt.Fprintf(&report, "Guarded rows (limit +%.0f%% over baseline):\n", 100*MaxRegress)
	for _, g := range guards {
		be, okB := base[g]
		me, okM := got[g]
		b, m, u := be.NsPerOp, me.NsPerOp, unit(me)
		switch {
		case !okB:
			failures = append(failures, fmt.Sprintf("%s: missing from baseline", g))
		case !okM:
			failures = append(failures, fmt.Sprintf("%s: not measured", g))
		case be.Unit != "" && be.Unit != u:
			// A baseline written before rows carried units has none.
			failures = append(failures, fmt.Sprintf("%s: measured in %s, baseline in %s", g, u, be.Unit))
		case b <= 0:
			failures = append(failures, fmt.Sprintf("%s: degenerate baseline %d%s", g, b, u))
		default:
			ratio := float64(m)/float64(b) - 1
			status := "ok"
			if ratio > MaxRegress {
				status = "REGRESSED"
				failures = append(failures,
					fmt.Sprintf("%s: %d%s vs baseline %d%s (%+.0f%%, limit +%.0f%%)",
						g, m, u, b, u, 100*ratio, 100*MaxRegress))
			}
			fmt.Fprintf(&report, "  %-24s %10d%-2s baseline %10d%-2s  %+6.1f%%  %s\n",
				g, m, u, b, u, 100*ratio, status)
		}
	}

	// A relation whose rows were both left unmeasured (its table was not
	// requested) is skipped; a half-measured one fails, since a vanished
	// leg is not a pass.
	report.WriteString("Relations:\n")
	for _, r := range rels {
		le, okL := got[r.Left]
		re, okR := got[r.Right]
		l, rv := le.NsPerOp, re.NsPerOp
		switch {
		case !okL && !okR:
			continue
		case !okL || !okR:
			missing := r.Left
			if okL {
				missing = r.Right
			}
			failures = append(failures, fmt.Sprintf("%s vs %s: %s not measured", r.Left, r.Right, missing))
		case unit(le) != unit(re):
			failures = append(failures, fmt.Sprintf("%s vs %s: rows in %s and %s", r.Left, r.Right, unit(le), unit(re)))
		case rv <= 0:
			failures = append(failures, fmt.Sprintf("%s vs %s: degenerate measurement %d%s", r.Left, r.Right, rv, unit(re)))
		default:
			u := unit(le)
			ratio := float64(l) / float64(rv)
			status := "ok"
			if ratio > r.Factor {
				status = "VIOLATED"
				failures = append(failures, fmt.Sprintf("%s: %d%s > %.2f x %s (%d%s) — %s",
					r.Left, l, u, r.Factor, r.Right, rv, u, r.Why))
			}
			fmt.Fprintf(&report, "  %-24s %10d%-2s <= %.2f x %-24s %10d%-2s  (x%.2f)  %s\n",
				r.Left, l, u, r.Factor, r.Right, rv, u, ratio, status)
		}
	}

	if len(failures) > 0 {
		return report.String(), fmt.Errorf("check failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return report.String(), nil
}

// unit returns a measured row's unit: a row that names none is in ns.
func unit(e BenchEntry) string {
	if e.Unit == "" {
		return "ns"
	}
	return e.Unit
}

// byKey indexes entries by their "table:row" key.
func byKey(es []BenchEntry) map[string]BenchEntry {
	m := make(map[string]BenchEntry, len(es))
	for _, e := range es {
		m[e.Table+":"+e.Row] = e
	}
	return m
}

// ReadBenchJSON loads a bench-entries file written by WriteBenchJSON.
func ReadBenchJSON(path string) ([]BenchEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var entries []BenchEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return entries, nil
}

// WriteBenchJSON writes the collected entries to path as indented JSON.
func WriteBenchJSON(path string, entries []BenchEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(entries); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

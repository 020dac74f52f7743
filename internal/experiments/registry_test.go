package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// The -check gate's guard and relation sets, pinned so that a change to
// the registry cannot drop or loosen a gate silently.
var (
	wantGuards = []string{
		"3-5:stat()/without",
		"3-5:getpid()/with",
		"sup:getpid()/idle",
		"sup:getpid()/strict",
		"trace:getpid()/off",
		"trace:getpid()/sampled",
		"crash:write4k/on",
		"worldd:session",
		"worldd:idle-mem/world",
		"pool:fork",
		"resil:probe",
		"resil:session/admit",
	}
	wantRelations = []struct {
		left, right string
		factor      float64
	}{
		{"crash:make/on", "crash:make/off", 1.15},
		{"crash:restore", "crash:boot", 1.0},
		{"crash:restore/again", "crash:restore", 0.25},
		{"pool:fork/large", "pool:fork", 2.0},
		{"pool:fork/wide", "pool:fork", 2.0},
		{"resil:recover/fork", "resil:boot", 1.0},
		{"resil:session/admit", "resil:session", 1.15},
	}
)

func TestRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, tb := range Tables {
		if names[tb.Name] {
			t.Fatalf("table %q registered twice", tb.Name)
		}
		names[tb.Name] = true
	}
	if len(Tables) != 14 {
		t.Fatalf("%d tables registered, want 14", len(Tables))
	}

	guards, rels := gates(Tables)
	if !reflect.DeepEqual(guards, wantGuards) {
		t.Fatalf("guards = %q\nwant %q", guards, wantGuards)
	}
	if len(rels) != len(wantRelations) {
		t.Fatalf("%d relations, want %d", len(rels), len(wantRelations))
	}
	for i, r := range rels {
		w := wantRelations[i]
		if r.Left != w.left || r.Right != w.right || r.Factor != w.factor || r.Why == "" {
			t.Fatalf("relation %d = %+v, want %s <= %.2f x %s with a reason", i, r, w.left, w.factor, w.right)
		}
	}

	// Every gate names a registered table and a row that table writes:
	// guards are looked up in the checked-in baseline, relation legs in
	// the newest dated BENCH file.
	baseline, err := ReadBenchJSON(filepath.Join(repoRoot(), "BENCH_BASELINE.json"))
	if err != nil {
		t.Fatal(err)
	}
	dated, err := filepath.Glob(filepath.Join(repoRoot(), "BENCH_2*.json"))
	if err != nil || len(dated) == 0 {
		t.Fatalf("no dated BENCH file: %v", err)
	}
	sort.Strings(dated)
	latest, err := ReadBenchJSON(dated[len(dated)-1])
	if err != nil {
		t.Fatal(err)
	}
	known := func(key string, in []BenchEntry) bool {
		table, _, _ := strings.Cut(key, ":")
		_, ok := byKey(in)[key]
		return names[table] && ok
	}
	for _, g := range guards {
		if !known(g, baseline) {
			t.Errorf("guard %s: no such registered row in the baseline", g)
		}
	}
	for _, r := range rels {
		for _, key := range []string{r.Left, r.Right} {
			if !known(key, latest) {
				t.Errorf("relation leg %s: no such registered row in %s", key, filepath.Base(dated[len(dated)-1]))
			}
		}
	}
	// A baseline row the tables no longer write is an orphan: it gates
	// nothing and reads as a claim still being checked.
	for _, e := range baseline {
		if key := e.Table + ":" + e.Row; !known(key, latest) {
			t.Errorf("baseline row %s: no such registered row in %s", key, filepath.Base(dated[len(dated)-1]))
		}
	}
}

func TestSelect(t *testing.T) {
	got, err := Select([]string{"pool", "3-5", "pool"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "3-5" || got[1].Name != "pool" {
		t.Fatalf("Select kept flag order or duplicates: %v", got)
	}
	if all, err := Select([]string{"all"}); err != nil || len(all) != len(Tables) {
		t.Fatalf("all selected %d tables (%v)", len(all), err)
	}
	if _, err := Select([]string{"3-5", "nope"}); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("unknown table accepted: %v", err)
	}
}

func TestTimingHelpersRejectZeroRuns(t *testing.T) {
	calls := 0
	work := func(string) (time.Duration, error) { calls++; return time.Millisecond, nil }
	round := func() (time.Duration, error) { calls++; return time.Millisecond, nil }
	for _, runs := range []int{0, -1} {
		if _, err := interleavedMean(runs, []string{"a"}, work); !errors.Is(err, errRuns) {
			t.Fatalf("interleavedMean(runs=%d) err = %v", runs, err)
		}
		if _, err := bestOf(runs, round); !errors.Is(err, errRuns) {
			t.Fatalf("bestOf(runs=%d) err = %v", runs, err)
		}
	}
	if calls != 0 {
		t.Fatalf("work ran %d times for a rejected run count", calls)
	}

	// One run is one warm-up plus one timed call per row.
	es, err := interleavedMean(1, []string{"a", "b"}, work)
	if err != nil || len(es) != 2 || es[1].Row != "b" || es[1].NsPerOp != time.Millisecond.Nanoseconds() {
		t.Fatalf("interleavedMean(1) = %+v, %v", es, err)
	}
	if calls != 4 {
		t.Fatalf("interleavedMean(1) over 2 rows made %d calls, want 4", calls)
	}
	n := 0
	best, err := bestOf(3, func() (time.Duration, error) { n++; return time.Duration(10 - n), nil })
	if err != nil || best != 6 || n != 4 {
		t.Fatalf("bestOf(3) = %v after %d rounds (%v), want 6 after 4", best, n, err)
	}
}

func TestCheckReportsGuardsAndRelations(t *testing.T) {
	tables := []Table{{
		Name:   "t",
		Guards: []string{"hot", "steady"},
		Relations: []Relation{
			{Left: "fast", Right: "slow", Factor: 0.5, Why: "fast must halve slow"},
			{Left: "steady", Right: "slow", Factor: 1, Why: "steady beats slow"},
		},
	}}
	row := func(r string, v int64) BenchEntry { return BenchEntry{Table: "t", Row: r, NsPerOp: v} }
	baseline := []BenchEntry{row("hot", 100), row("steady", 100)}
	measured := []BenchEntry{row("hot", 200), row("steady", 100), row("fast", 90), row("slow", 100)}

	report, err := check(tables, baseline, measured)
	if err == nil {
		t.Fatalf("regressed guard and violated relation passed:\n%s", report)
	}
	for _, want := range []string{"t:hot", "REGRESSED", "t:steady", "t:fast", "VIOLATED"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	msg := err.Error()
	for _, want := range []string{"t:hot: 200ns vs baseline 100ns", "fast must halve slow"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error missing %q: %s", want, msg)
		}
	}
	if strings.Contains(msg, "steady beats slow") || strings.HasPrefix(msg, "experiments:") {
		t.Errorf("error reports a passing gate or a package prefix: %s", msg)
	}

	// A subset run still fails on every guard it did not measure, and on
	// a relation with one leg measured.
	_, err = check(tables, baseline, []BenchEntry{row("slow", 100)})
	if err == nil {
		t.Fatal("unmeasured guards passed")
	}
	for _, want := range []string{"t:hot: not measured", "t:steady: not measured", "t:fast not measured"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
	passing := []BenchEntry{row("hot", 120), row("steady", 90), row("fast", 40), row("slow", 100)}
	if report, err := check(tables, baseline, passing); err != nil {
		t.Fatalf("passing run failed: %v\n%s", err, report)
	}
}

// TestCheckUnits: rows carry their unit into the bench JSON; a baseline
// written before rows had units still gates, and a guard whose baseline
// names a different unit fails.
func TestCheckUnits(t *testing.T) {
	tables := []Table{{Name: "w", Guards: []string{"mem", "time"}}}
	measured := []BenchEntry{
		{Table: "w", Row: "mem", NsPerOp: 900, Unit: "B"},
		{Table: "w", Row: "time", NsPerOp: 100, Unit: "ns"},
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteBenchJSON(path, measured); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(data), `"unit": "B"`) {
		t.Fatalf("bench JSON lacks the unit: %s %v", data, err)
	}

	legacy := filepath.Join(t.TempDir(), "legacy.json")
	os.WriteFile(legacy, []byte(`[{"table":"w","row":"mem","ns_per_op":1000},{"table":"w","row":"time","ns_per_op":100}]`), 0o644)
	baseline, err := ReadBenchJSON(legacy)
	if err != nil {
		t.Fatal(err)
	}
	report, err := check(tables, baseline, measured)
	if err != nil {
		t.Fatalf("unitless baseline failed the gate: %v\n%s", err, report)
	}
	if !strings.Contains(report, "900B") {
		t.Errorf("report does not print the row's unit:\n%s", report)
	}

	baseline[0].Unit = "ns"
	if _, err := check(tables, baseline, measured); err == nil || !strings.Contains(err.Error(), "measured in B, baseline in ns") {
		t.Fatalf("unit mismatch passed: %v", err)
	}
}

package experiments

import (
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"interpose/internal/kernel"
)

// mustWorld boots the test world, failing the test on error.
func mustWorld(t *testing.T) *kernel.Kernel {
	t.Helper()
	k, err := World()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestWorldBoots(t *testing.T) {
	k, err := World()
	if err != nil {
		t.Fatal(err)
	}
	// The bench fixtures exist.
	if _, err := k.ReadFile("/usr/lib/bench/data1k"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ReadFile("/usr/lib/bench/three/four/five/six"); err != nil {
		t.Fatal(err)
	}
}

func TestAgentStacks(t *testing.T) {
	k := mustWorld(t)
	for _, name := range append(MacroStacks, "null") {
		agents, err := AgentStack(k, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "none" && agents != nil {
			t.Fatal("none should be empty")
		}
		if name != "none" && len(agents) != 1 {
			t.Fatalf("%s: %d agents", name, len(agents))
		}
	}
	if _, err := AgentStack(k, "bogus"); err == nil {
		t.Fatal("bogus stack accepted")
	}
}

func TestScribeWorkloadRuns(t *testing.T) {
	k := mustWorld(t)
	manuscript, err := SetupScribe(k)
	if err != nil {
		t.Fatal(err)
	}
	// The manuscript has the advertised rough size.
	data, err := k.ReadFile(manuscript)
	if err != nil {
		t.Fatal(err)
	}
	total := len(data)
	for i := 1; i <= 8; i++ {
		ch, err := k.ReadFile("/doc/chapter0" + string(rune('0'+i)) + ".mss")
		if err != nil {
			t.Fatalf("chapter %d: %v", i, err)
		}
		total += len(ch)
	}
	if total < 60_000 || total > 400_000 {
		t.Fatalf("manuscript size %d out of the ~100KB ballpark", total)
	}
	for _, stack := range MacroStacks {
		agents, _ := AgentStack(k, stack)
		if _, err := RunScribe(k, agents, manuscript); err != nil {
			t.Fatalf("%s: %v", stack, err)
		}
	}
}

func TestMakeWorkloadRunsAndCleans(t *testing.T) {
	k := mustWorld(t)
	if err := SetupMake(k, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := RunMake(k, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ReadFile("/src/prog1"); err != nil {
		t.Fatal("build produced nothing")
	}
	if err := CleanMake(k, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ReadFile("/src/prog1"); err == nil {
		t.Fatal("clean left outputs")
	}
	// And it rebuilds.
	if _, err := RunMake(k, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunBenchOps(t *testing.T) {
	for _, op := range table35Ops {
		k := mustWorld(t)
		if _, err := RunBench(k, nil, op.Op, 3); err != nil {
			t.Fatalf("%s: %v", op.Op, err)
		}
	}
}

func TestTable31Shape(t *testing.T) {
	rows, err := RunTable31()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Toolkit <= 0 || r.Specific <= 0 || r.Total != r.Toolkit+r.Specific {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestCountStatements(t *testing.T) {
	n, err := CountStatements(SymbolicLevelFiles())
	if err != nil {
		t.Fatal(err)
	}
	if n < 100 {
		t.Fatalf("symbolic level suspiciously small: %d", n)
	}
	if _, err := CountStatements([]string{"/no/such/file.go"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestKernelTraceHookCount(t *testing.T) {
	hooks, err := CountKernelTraceHooks()
	if err != nil {
		t.Fatal(err)
	}
	if hooks < 10 {
		t.Fatalf("only %d kernel trace hooks found", hooks)
	}
}

func TestTable34Measures(t *testing.T) {
	es, err := table34.Run(io.Discard, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]time.Duration{}
	for _, e := range es {
		if e.Table != "3-4" {
			t.Fatalf("row %q stamped with table %q", e.Row, e.Table)
		}
		got[e.Row] = time.Duration(e.NsPerOp)
	}
	if got["intercept-return"] <= 0 {
		t.Fatal("intercept cost not measured")
	}
	if pc := got["procedure-call"]; pc <= 0 || pc > time.Millisecond {
		t.Fatalf("procedure call time implausible: %v", pc)
	}
}

func TestMeasureAdaptive(t *testing.T) {
	d := Measure(func() {})
	if d < 0 || d > time.Millisecond {
		t.Fatalf("empty op measured as %v", d)
	}
}

// TestMeasureIgnoresCalibrationStall: an op that stalls 25 ms once, in
// the first calibration round, is reported at its unstalled cost, not
// at the stall divided by that round's few calls. Each cost is the
// fastest of three interleaved measurements, so host load that slows
// one measurement does not decide the comparison; a stall reported as
// cost reads 25 ms in every stalled one.
func TestMeasureIgnoresCalibrationStall(t *testing.T) {
	op := func() {
		for i := 0; i < 50; i++ {
			sink = plainCall(sink)
		}
	}
	base, stalled := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for round := 0; round < 3; round++ {
		base = min(base, Measure(op))
		calls := 0
		stalled = min(stalled, Measure(func() {
			if calls++; calls == 1 {
				time.Sleep(25 * time.Millisecond)
			}
			op()
		}))
	}
	if stalled > 2*base {
		t.Fatalf("stalled op measured %v, unstalled %v", stalled, base)
	}
}

func TestPrintersProduceTables(t *testing.T) {
	var b strings.Builder
	printSlowdown(&b, "Title", []BenchEntry{
		entry("none", time.Second),
		entry("trace", 2*time.Second),
	})
	PrintTable31(&b, []Table31Row{{Agent: "timex", Toolkit: 10, Specific: 1, Total: 11}})
	printTable34(&b, make([]BenchEntry, len(table34Labels)))
	printTable35(&b, []BenchEntry{entry("getpid()/without", 40), entry("getpid()/with", 80)})
	printDFSTrace(&b, []BenchEntry{
		entry("untraced", time.Second),
		entry("kernel-based", time.Second),
		entry("dfstrace-agent", 2*time.Second),
	}, 5, 6, 10, 20)
	printSpeedups(&b, []BenchEntry{entry("j4-trace", time.Second)}, entry("j1-trace", 2*time.Second))
	printRows(&b, "Rows", []BenchEntry{entry("probe", 1500)}, func(BenchEntry) string { return "ns   (remark)" })
	out := b.String()
	for _, want := range []string{"Title", "100.0%", "Table 3-1", "Table 3-4", "Table 3-5", "DFSTrace", "timex",
		"getpid()", "40ns", "trace", "2.00x", "1500ns   (remark)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printed tables missing %q:\n%s", want, out)
		}
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		2 * time.Second:         "2.00s",
		1500 * time.Microsecond: "1.50ms",
		42 * time.Microsecond:   "42.00µs",
		900 * time.Nanosecond:   "900ns",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
}

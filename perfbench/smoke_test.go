package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke checks the benchmark itself: BENCHMARK.json names the
// workloads and metrics this program has, and a brief run of every
// workload, untraced and traced, prints every named metric with its
// unit, puts it in the result line, and fails no session.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	tables := [][]metric{endToEnd, perLayer}
	for i, listed := range [][]entry{bench.EndToEnd, bench.PerLayer} {
		var want []entry
		for _, m := range tables[i] {
			want = append(want, entry{m.name, m.unit, m.better})
		}
		if fmt.Sprint(listed) != fmt.Sprint(want) {
			t.Fatalf("BENCHMARK.json lists %v, the program reports %v", listed, want)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bench.Workloads), len(workloads))
	}

	for _, wl := range bench.Workloads {
		for traced, table := range tables {
			t.Run(fmt.Sprintf("%s/trace=%d", wl.Name, traced), func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", wl.Name, "--seed", "7", "--seconds", "0.5",
					"--trace", fmt.Sprint(traced), "--dir", t.TempDir()}
				if err := run(args, &out); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("result line: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				if len(res.Metrics) != len(table) {
					t.Errorf("result carries %d metrics, want %d", len(res.Metrics), len(table))
				}
				printed := make(map[string][]string)
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) >= 3 {
						printed[f[0]] = f[1:3]
					}
				}
				want := table
				if traced == 0 {
					want = append(want[:len(want):len(want)], errorRate)
					if got := printed[errorRate.name]; len(got) == 0 || got[0] != "0" {
						t.Errorf("error_rate printed as %v, want 0", got)
					}
				}
				for _, m := range want {
					if got := printed[m.name]; len(got) < 2 || got[1] != m.unit {
						t.Errorf("%s printed as %v, want a value in %s", m.name, got, m.unit)
					}
					if v, ok := res.Metrics[m.name]; m != errorRate && (!ok || v.Unit != m.unit) {
						t.Errorf("%s in the result as %+v, want unit %s", m.name, v, m.unit)
					}
				}
			})
		}
	}
}

// Command experiments regenerates every table of the paper's evaluation
// section against this reproduction, plus the tables the reproduction
// adds. The tables and the -check gates on their rows come from the
// registry in internal/experiments (experiments.Tables); -h lists the
// table names.
//
//	experiments                          # all tables
//	experiments -table 3-2,3-5           # some tables
//	experiments -runs 9                  # timed repetitions per row (paper used 9)
//	experiments -json                    # also write BENCH_<date>.json
//	experiments -check BENCH_BASELINE.json
//
// -check enforces every registered guard and relation, whatever -table
// selects: a guarded row left unmeasured fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"interpose/internal/experiments"
)

func main() {
	var names []string
	for _, t := range experiments.Tables {
		names = append(names, t.Name)
	}
	table := flag.String("table", "all", "comma-separated tables to run: "+strings.Join(names, ", ")+", all")
	runs := flag.Int("runs", 9, "timed repetitions per row (after one discarded run); at least 1")
	programs := flag.Int("programs", 8, "program count for the make workload")
	benchJSON := flag.Bool("json", false, "write measured rows to BENCH_<date>.json")
	check := flag.String("check", "", "baseline BENCH json to compare against; exit 1 if a guarded row regresses >50% or a relation is violated")
	flag.Parse()

	usage := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		flag.Usage()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if *runs < 1 {
		usage(fmt.Errorf("-runs %d: must be at least 1", *runs))
	}
	tables, err := experiments.Select(strings.Split(*table, ","))
	if err != nil {
		usage(err)
	}

	var entries []experiments.BenchEntry
	for _, t := range tables {
		es, err := t.Run(os.Stdout, *runs, *programs)
		if err != nil {
			fail(err)
		}
		entries = append(entries, es...)
	}

	if *benchJSON {
		name := "BENCH_" + time.Now().Format("2006-01-02") + ".json"
		if err := experiments.WriteBenchJSON(name, entries); err != nil {
			fail(err)
		}
		fmt.Println("wrote " + name)
	}

	if *check != "" {
		baseline, err := experiments.ReadBenchJSON(*check)
		if err != nil {
			fail(err)
		}
		report, err := experiments.Check(baseline, entries)
		fmt.Printf("Baseline check against %s:\n%s", *check, report)
		if err != nil {
			fail(err)
		}
	}
}

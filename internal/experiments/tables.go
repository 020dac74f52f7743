package experiments

import (
	"fmt"
	"io"
	"time"

	"interpose/internal/agents/dfstrace"
	"interpose/internal/core"
	"interpose/internal/kernel"
)

// The agent sizes table (Table 3-1): static statement counts, no rows to
// time.
var table31 = Table{Name: "3-1", run: func(w io.Writer, _, _ int) ([]BenchEntry, error) {
	rows, err := RunTable31()
	if err != nil {
		return nil, err
	}
	PrintTable31(w, rows)
	return nil, nil
}}

// PrintTable31 writes the agent-sizes table.
func PrintTable31(w io.Writer, rows []Table31Row) {
	fmt.Fprintf(w, "Table 3-1: Sizes of agents, measured in Go statements\n\n")
	fmt.Fprintf(w, "  %-8s %10s %10s %10s\n", "Agent", "Toolkit", "Agent", "Total")
	fmt.Fprintf(w, "  %-8s %10s %10s %10s\n", "Name", "Statements", "Statements", "Statements")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %10d %10d %10d\n", r.Agent, r.Toolkit, r.Specific, r.Total)
	}
	fmt.Fprintln(w)
}

// MacroStacks is the agent order of Tables 3-2 and 3-3.
var MacroStacks = []string{"none", "timex", "trace", "union"}

// macroEnv holds the per-stack world prepared for a macro table.
type macroEnv struct {
	k          *kernel.Kernel
	agents     []core.Agent
	manuscript string
}

func prepareEnvs(stacks []string, setup func(k *kernel.Kernel) (string, error)) (map[string]*macroEnv, error) {
	envs := make(map[string]*macroEnv, len(stacks))
	for _, name := range stacks {
		k, err := World()
		if err != nil {
			return nil, err
		}
		manuscript, err := setup(k)
		if err != nil {
			return nil, err
		}
		agents, err := AgentStack(k, name)
		if err != nil {
			return nil, err
		}
		envs[name] = &macroEnv{k: k, agents: agents, manuscript: manuscript}
	}
	return envs, nil
}

// Table 3-2: "format my dissertation" under each agent stack, one world
// per stack, the stacks' rounds interleaved.
var table32 = Table{Name: "3-2", run: func(w io.Writer, runs, _ int) ([]BenchEntry, error) {
	envs, err := prepareEnvs(MacroStacks, SetupScribe)
	if err != nil {
		return nil, err
	}
	es, err := interleavedMean(runs, MacroStacks, func(stack string) (time.Duration, error) {
		e := envs[stack]
		return RunScribe(e.k, e.agents, e.manuscript)
	})
	if err != nil {
		return nil, err
	}
	printSlowdown(w, "Table 3-2: Time to format the dissertation", es)
	return es, nil
}}

// Table 3-3: "make N programs" under each agent stack.
var table33 = Table{Name: "3-3", run: func(w io.Writer, runs, programs int) ([]BenchEntry, error) {
	envs, err := prepareEnvs(MacroStacks, func(k *kernel.Kernel) (string, error) {
		return "", SetupMake(k, programs)
	})
	if err != nil {
		return nil, err
	}
	es, err := interleavedMean(runs, MacroStacks, func(stack string) (time.Duration, error) {
		e := envs[stack]
		if err := CleanMake(e.k, programs); err != nil {
			return 0, err
		}
		return RunMake(e.k, e.agents)
	})
	if err != nil {
		return nil, err
	}
	printSlowdown(w, fmt.Sprintf("Table 3-3: Time to make %d programs", programs), es)
	return es, nil
}}

// printSlowdown writes a Table 3-2/3-3 style table: each row's elapsed
// time and its slowdown over the first row.
func printSlowdown(w io.Writer, title string, es []BenchEntry) {
	fmt.Fprintf(w, "%s\n\n", title)
	fmt.Fprintf(w, "  %-12s %12s %12s\n", "Agent Name", "Elapsed", "% Slowdown")
	for i, e := range es {
		d := fmtDur(time.Duration(e.NsPerOp))
		if i == 0 {
			fmt.Fprintf(w, "  %-12s %12s %12s\n", e.Row, d, "")
			continue
		}
		fmt.Fprintf(w, "  %-12s %12s %11.1f%%\n", e.Row, d, slowdown(e, es[0]))
	}
	fmt.Fprintln(w)
}

// slowdown is e's elapsed time over base's, in percent.
func slowdown(e, base BenchEntry) float64 {
	if base.NsPerOp == 0 {
		return 0
	}
	return 100 * float64(e.NsPerOp-base.NsPerOp) / float64(base.NsPerOp)
}

// The DFSTrace comparison (paper §3.5.3): the AFS-shaped workload
// untraced, under the kernel's compiled-in tracer, and under the
// dfstrace agent, the three interleaved across dfsRounds rounds, plus the
// statement counts of the two implementations.
var dfsTable = Table{Name: "dfs", run: runDFS}

// dfsRounds is the dfs table's timed round count, fixed whatever -runs
// says.
const dfsRounds = 9

func runDFS(w io.Writer, _, _ int) ([]BenchEntry, error) {
	k, err := World()
	if err != nil {
		return nil, err
	}
	if err := SetupMake(k, 2); err != nil {
		return nil, err
	}
	kcl := dfstrace.NewCollector()
	acl := dfstrace.NewCollector()
	agent := dfstrace.New(acl)
	es, err := interleavedMean(dfsRounds, []string{"untraced", "kernel-based", "dfstrace-agent"},
		func(row string) (time.Duration, error) {
			switch row {
			case "untraced":
				return DFSTraceWorkload(k, nil)
			case "kernel-based":
				kcl.Reset()
				k.SetTracer(dfstrace.NewKernelTracer(kcl))
				defer k.SetTracer(nil)
				return DFSTraceWorkload(k, nil)
			default:
				acl.Reset()
				return DFSTraceWorkload(k, []core.Agent{agent})
			}
		})
	if err != nil {
		return nil, err
	}
	kStmts, aStmts, err := DFSTraceSizes()
	if err != nil {
		return nil, err
	}
	printDFSTrace(w, es, kcl.Len(), acl.Len(), kStmts, aStmts)
	return es, nil
}

// printDFSTrace writes the rows of runDFS with the record counts of the
// last traced rounds and the implementation sizes.
func printDFSTrace(w io.Writer, es []BenchEntry, kernelRecords, agentRecords, kernelStmts, agentStmts int) {
	fmt.Fprintf(w, "DFSTrace comparison (paper §3.5.3)\n\n")
	fmt.Fprintf(w, "  %-24s %12s %12s %10s\n", "Implementation", "Elapsed", "% Slowdown", "Records")
	fmt.Fprintf(w, "  %-24s %12s %12s %10s\n", "untraced", fmtDur(time.Duration(es[0].NsPerOp)), "", "")
	for i, records := range []int{kernelRecords, agentRecords} {
		e := es[i+1]
		fmt.Fprintf(w, "  %-24s %12s %11.1f%% %10d\n",
			e.Row, fmtDur(time.Duration(e.NsPerOp)), slowdown(e, es[0]), records)
	}
	fmt.Fprintf(w, "\n  Implementation sizes: kernel-based %d statements, agent-based %d statements\n\n",
		kernelStmts, agentStmts)
}

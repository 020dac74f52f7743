// Package experiments regenerates the paper's evaluation: every table in
// §3 of "Interposition Agents" (Jones, SOSP '93), measured against this
// reproduction, plus the tables this reproduction adds. Tables is the
// registry: each entry names a table, measures and prints it, and
// declares the -check gates on its rows. The cmd/experiments binary
// runs registry entries; the repository's benchmarks reuse the same
// workload runners.
package experiments

import (
	"fmt"
	"time"

	"interpose/internal/agents"
	"interpose/internal/apps"
	"interpose/internal/core"
	"interpose/internal/kernel"
	"interpose/internal/sys"
	"interpose/internal/world"
)

// WorldSpec declares the benchmark world: the full application set plus
// the benchmark fixtures. Tables needing more state append Setup hooks.
func WorldSpec() world.Spec {
	s := apps.Spec()
	s.Setup = append(s.Setup, func(k *kernel.Kernel) error {
		return apps.SetupBenchFiles(k)
	})
	return s
}

// World boots a full application world with the benchmark fixtures — a
// thin caller of the world lifecycle layer.
func World() (*kernel.Kernel, error) {
	w, err := world.Boot(WorldSpec())
	if err != nil {
		return nil, err
	}
	return w.Kernel(), nil
}

// paperStacks names each of the paper's agent configurations by its
// agents-catalog spec, the same spec a world or agentrun is given.
var paperStacks = map[string]string{
	"timex": "timex=3600",
	"trace": "trace",
	// The union view used by the workloads: it interposes on the vast
	// majority of system calls and uses the additional toolkit layers.
	"union": "union=/view=/doc:/src",
	"null":  "null",
}

// AgentStack builds one of the paper's agent configurations by name:
// "none", "timex", "trace", "union", or "null" (the measurement agent).
func AgentStack(k *kernel.Kernel, name string) ([]core.Agent, error) {
	if name == "none" {
		return nil, nil
	}
	spec, ok := paperStacks[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown agent stack %q", name)
	}
	inst, err := agents.New(spec)
	if err != nil {
		return nil, err
	}
	return []core.Agent{inst.Agent}, nil
}

// runChecked runs a program to completion, failing on nonzero exit.
func runChecked(k *kernel.Kernel, agents []core.Agent, path string, argv []string) error {
	st, out, err := core.Run(k, agents, path, argv, []string{"PATH=/bin"})
	if err != nil {
		return err
	}
	if !sys.WIfExited(st) || sys.WExitStatus(st) != 0 {
		return fmt.Errorf("experiments: %v exited %#x: %.400s", argv, st, out)
	}
	return nil
}

// SetupScribe generates the dissertation manuscript (once per world).
// The default shape yields a manuscript of roughly 100 KB.
func SetupScribe(k *kernel.Kernel) (string, error) {
	return apps.GenDissertation(k, "/doc", 8, 4, 6)
}

// RunScribe formats the dissertation under the given agents, returning the
// elapsed time (Table 3-2's unit of work).
func RunScribe(k *kernel.Kernel, agents []core.Agent, manuscript string) (time.Duration, error) {
	start := time.Now()
	err := runChecked(k, agents, "/bin/scribe", []string{"scribe", manuscript})
	return time.Since(start), err
}

// SetupMake generates the make-8-programs tree (once per build, since a
// build dirties it).
func SetupMake(k *kernel.Kernel, programs int) error {
	return apps.GenMakeTree(k, "/src", programs)
}

// CleanMake removes build outputs so the next run rebuilds everything.
func CleanMake(k *kernel.Kernel, programs int) error {
	for i := 1; i <= programs; i++ {
		for _, suffix := range []string{"", "_main.o", "_sub.o", "_main.i", "_sub.i", "_main.s", "_sub.s"} {
			if err := k.Remove(fmt.Sprintf("/src/prog%d%s", i, suffix)); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunMake builds the tree under the given agents (Table 3-3's unit of
// work), returning the elapsed time.
func RunMake(k *kernel.Kernel, agents []core.Agent) (time.Duration, error) {
	start := time.Now()
	err := runChecked(k, agents, "/bin/sh", []string{"sh", "-c", "cd /src; mk all"})
	return time.Since(start), err
}

// RunMakeJ builds the tree with mk -j jobs (the scalability table's unit
// of work), returning the elapsed time. jobs=1 degenerates to RunMake.
func RunMakeJ(k *kernel.Kernel, agents []core.Agent, jobs int) (time.Duration, error) {
	start := time.Now()
	cmd := fmt.Sprintf("cd /src; mk -j %d all", jobs)
	err := runChecked(k, agents, "/bin/sh", []string{"sh", "-c", cmd})
	return time.Since(start), err
}

// RunBench runs the bench program: n repetitions of op under agents.
func RunBench(k *kernel.Kernel, agents []core.Agent, op string, n int) (time.Duration, error) {
	start := time.Now()
	err := runChecked(k, agents, "/bin/bench", []string{"bench", op, fmt.Sprint(n)})
	return time.Since(start), err
}

// DFSTraceWorkload runs the AFS-benchmark-shaped filesystem workload used
// for the §3.5.3 comparison (the "bench stat" phase mirrors the AFS
// benchmark's heavy pathname traffic; the shell phase adds the copy and
// scan passes).
func DFSTraceWorkload(k *kernel.Kernel, agents []core.Agent) (time.Duration, error) {
	start := time.Now()
	if _, err := RunBench(k, agents, "stat", 10000); err != nil {
		return 0, err
	}
	script := "mkdir /tmp/phase1; cp /src/Makefile /tmp/phase1/Makefile; " +
		"ls /src; cat /src/defs.h; " +
		"cp /src/prog1_main.c /tmp/phase1/x.c; grep main /tmp/phase1/x.c; " +
		"rm /tmp/phase1/x.c; rm /tmp/phase1/Makefile; rm -r /tmp/phase1"
	for pass := 0; pass < 3; pass++ {
		if err := runChecked(k, agents, "/bin/sh", []string{"sh", "-c", script}); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

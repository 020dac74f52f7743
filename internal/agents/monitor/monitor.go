// Package monitor implements a system call and resource usage monitoring
// agent (paper §2.4, "System Call Tracing and Monitoring Facilities"): it
// counts and times every system call made by its clients, per call and
// per process, and can print a usage report when each client exits.
//
// Per-call accounting is backed by a telemetry.Registry, so the counters
// are atomics shared with the rest of the flight-recorder substrate and a
// full structured Snapshot is available; each downcall's wall time feeds
// the registry's log2 histograms, so the report carries p50/p90/p99 next
// to raw counts. Per-process accounting lives in a map pruned as each
// client exits; totals for dead processes fold into aggregate counters,
// so a long-lived monitor over many short-lived clients uses bounded
// memory.
package monitor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"interpose/internal/core"
	"interpose/internal/sys"
	"interpose/internal/telemetry"
)

// Agent counts system calls.
type Agent struct {
	core.Numeric

	reg *telemetry.Registry

	mu          sync.Mutex
	byPID       map[int]uint64
	exitedProcs uint64
	exitedCalls uint64
	report      bool // print a report as each process exits
}

// New creates a monitoring agent. With report set, each exiting client
// process gets a usage summary printed on its standard error.
func New(report bool) *Agent {
	a := &Agent{
		reg:    telemetry.NewRegistry(),
		byPID:  make(map[int]uint64),
		report: report,
	}
	a.RegisterAll()
	return a
}

// Registry exposes the agent's telemetry registry: occurrence counters
// plus the latency histograms fed by timing each downcall.
func (a *Agent) Registry() *telemetry.Registry { return a.reg }

// Snapshot returns a structured view of everything the monitor has
// counted so far.
func (a *Agent) Snapshot() telemetry.Snapshot { return a.reg.Snapshot() }

// Syscall counts the call at entry, times the downcall, and passes the
// result through (numeric-layer agent: no argument decoding is needed).
// Counting happens before the downcall so calls that never return (exit,
// a successful execve) are still counted; the latency observation lands
// only for calls that do return.
func (a *Agent) Syscall(c sys.Ctx, num int, args sys.Args) (sys.Retval, sys.Errno) {
	a.reg.IncSyscall(num)
	a.mu.Lock()
	a.byPID[c.PID()]++
	a.mu.Unlock()

	if num == sys.SYS_exit && a.report {
		core.DownWrite(c, 2, []byte(a.Report(c.PID())))
	}
	start := time.Now()
	rv, err := core.Down(c, num, args)
	a.reg.ObserveLatency(num, time.Since(start))
	if err != sys.OK {
		a.reg.IncSyscallErr(num)
	}
	return rv, err
}

// ProcExit folds a dead client's per-process count into the exited
// aggregates and drops its map entry, keeping the monitor's footprint
// proportional to the number of live clients.
func (a *Agent) ProcExit(pid int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n, ok := a.byPID[pid]
	if !ok {
		return
	}
	delete(a.byPID, pid)
	a.exitedProcs++
	a.exitedCalls += n
}

// Total returns the number of calls observed.
func (a *Agent) Total() uint64 { return a.reg.TotalSyscalls() }

// Errors returns the number of calls that failed.
func (a *Agent) Errors() uint64 { return a.reg.TotalErrs() }

// Count returns the number of calls observed for one call number.
func (a *Agent) Count(num int) uint64 { return a.reg.SyscallCount(num) }

// PIDCount returns the number of calls made by one live process; a
// process that has exited reports zero (its calls are in ExitedCalls).
func (a *Agent) PIDCount(pid int) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.byPID[pid]
}

// LiveProcs returns the number of client processes with per-process
// records still held.
func (a *Agent) LiveProcs() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.byPID)
}

// ExitedProcs returns the number of client processes whose records have
// been pruned.
func (a *Agent) ExitedProcs() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.exitedProcs
}

// ExitedCalls returns the total calls made by pruned processes.
func (a *Agent) ExitedCalls() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.exitedCalls
}

// Report formats a usage summary. pid of 0 reports totals only.
func (a *Agent) Report(pid int) string {
	type entry struct {
		num int
		n   uint64
	}
	var entries []entry
	for num := 0; num < sys.MaxSyscall; num++ {
		if n := a.reg.SyscallCount(num); n > 0 {
			entries = append(entries, entry{num, n})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].n != entries[j].n {
			return entries[i].n > entries[j].n
		}
		return entries[i].num < entries[j].num
	})
	s := fmt.Sprintf("monitor: %d calls, %d errors", a.reg.TotalSyscalls(), a.reg.TotalErrs())
	if pid != 0 {
		s += fmt.Sprintf(" (pid %d made %d)", pid, a.PIDCount(pid))
	}
	s += "\n"
	for _, e := range entries {
		line := fmt.Sprintf("monitor:   %-16s %8d", sys.SyscallName(e.num), e.n)
		if qs, timed := a.reg.SyscallQuantiles(e.num, 0.5, 0.9, 0.99); timed > 0 {
			line += fmt.Sprintf("  p50 %-8v p90 %-8v p99 %v", qs[0], qs[1], qs[2])
		}
		s += line + "\n"
	}
	return s
}

// Command agentrun is the general agent loader: it boots the simulated
// system, installs the requested interposition agents, and runs a program
// under them, mirroring the paper's agent loader.
//
//	agentrun [-a agent[=arg]]... [-feed text] [-trace-kernel]
//	         [-inject plan] [-stats] [-stats-json] [-flight-dump]
//	         [-supervise strict|bypass] [-supervise-errno NAME]
//	         [-trace-out file]
//	         [-trace-sample p] [-trace-slow dur]
//	         [-journal file] [-checkpoint file] [-restore file]
//	         -- PROGRAM [args...]
//
// Examples:
//
//	agentrun -a trace -- /bin/echo hello
//	agentrun -a timex=86400 -- /bin/date
//	agentrun -a 'union=/u=/srcdir:/objdir' -- /bin/ls /u
//	agentrun -a sandbox=/tmp:emulate -- /bin/sh -c 'rm /etc/passwd'
//	agentrun -a trace -a timex=60 -- /bin/date   # stacked agents
//	agentrun -a 'faulty=seed=7,write=EIO@0.05' -a zip=/z -- /bin/prog
//	agentrun -inject 'seed=7,open=ENOSPC@0.01' -- /bin/sh -c 'mk all'
//	agentrun -supervise strict -a 'faulty=seed=7,write=panic@0.01' -- /bin/sh -c 'cd /src; mk all'
//
// The flags are a command-line syntax for a world.Spec: agentrun parses
// them into the declarative spec, hands it to the world lifecycle layer
// (internal/world) — which owns boot, journal replay, fsck gating,
// facility attachment, and teardown for every loader in the repository —
// and runs one session. The multi-tenant daemon (cmd/worldd) accepts the
// same spec as JSON.
//
// -inject installs the same deterministic fault plan the faulty agent
// uses, but as a kernel-side hook below every agent; the end-of-run
// injection summary lands on standard error either way.
//
// Agents listed first are installed closest to the kernel. The program's
// console output is echoed to standard output; each agent's end-of-run
// report (monitor counts, dfstrace records, sandbox violations, txn
// change lists) follows on standard error.
//
// Telemetry is always on: guests can read live counters from
// /dev/metrics, and -stats / -stats-json print the host-side snapshot
// (per-syscall latency histograms, per-layer time attribution) on
// standard error after the run. -flight-dump prints the flight-recorder
// ring of recent events; if the program dies on a signal the ring is
// dumped automatically, like a crash recorder should.
//
// -supervise installs the kernel's agent supervisor: a panicking agent
// upcall is contained instead of crashing the world — the call fails
// with -supervise-errno (strict) or completes below the failed layer
// (bypass) — and repeated failures quarantine the layer, which is
// announced on standard error along with a flight-ring dump whose
// supervise:* events carry the layer name.
// Breaker state appears as supervise.layer.* gauges in -stats.
//
// -trace-out installs the causal span tracer and writes the collected
// spans as Chrome trace-event JSON, loadable in Perfetto
// (https://ui.perfetto.dev) — per-syscall spans nested per layer, with
// fork/exec/pipe/signal/wait arrows connecting processes:
//
//	agentrun -trace-out make.json -- /bin/sh -c 'cd /src; mk -j 4 all'
//
// -trace-sample sets the head-sampling probability (default 1.0 when
// -trace-out is given); -trace-slow additionally retains unsampled calls
// at least that slow. Guests can read the same JSON from /dev/trace and
// retune sampling by writing "sample P" or "clear" to it.
//
// -journal attaches a write-ahead journal backed by a host file: every
// filesystem mutation is logged before it is applied, so an injected
// crash (-inject '...write=crash@p' or torn:N) leaves a replayable
// record of everything that was durable. -checkpoint writes the final
// world to a file after a clean run; -restore boots from such a file
// instead of a fresh world. Combining -restore with -journal first
// replays the journal's surviving suffix on top of the checkpoint
// (discarding a torn tail), then continues journaling to the same file:
//
//	agentrun -journal w.jnl -inject 'seed=7,write=torn:16@0.001' -- /bin/sh -c 'cd /src; mk all'
//	agentrun -journal w.jnl -restore w.ckpt -- /bin/ls /src   # recover, then keep going
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"interpose/internal/agents"
	"interpose/internal/apps"
	"interpose/internal/kernel"
	"interpose/internal/sys"
	"interpose/internal/telemetry"
	"interpose/internal/trace"
	"interpose/internal/world"
)

// agentList collects repeated -a flags.
type agentList []string

func (a *agentList) String() string { return strings.Join(*a, ",") }
func (a *agentList) Set(s string) error {
	*a = append(*a, s)
	return nil
}

func main() {
	var specs agentList
	flag.Var(&specs, "a", "agent specification (repeatable); see -list")
	list := flag.Bool("list", false, "list available agents and programs")
	feed := flag.String("feed", "", "text to feed to the console (standard input)")
	stats := flag.Bool("stats", false, "print the telemetry snapshot (text) on standard error")
	statsJSON := flag.Bool("stats-json", false, "print the telemetry snapshot as JSON on standard error")
	flightDump := flag.Bool("flight-dump", false, "print the flight-recorder ring on standard error")
	traceKernel := flag.Bool("trace-kernel", false, "print kernel-level file-reference trace events on standard error")
	inject := flag.String("inject", "", "kernel-side fault plan, injected below all agents (e.g. 'seed=7,write=EIO@0.05')")
	supervise := flag.String("supervise", "off", "contain agent failures: strict (failed call errors), bypass (failed call completes below the layer), or off")
	superviseErrno := flag.String("supervise-errno", "EFAULT", "errno a contained agent failure returns in strict mode")
	traceOut := flag.String("trace-out", "", "write causal span trace as Chrome trace-event JSON to this file (load in Perfetto)")
	traceSample := flag.Float64("trace-sample", -1, "span head-sampling probability in [0,1]; default 1 with -trace-out, else tracing off")
	traceSlow := flag.Duration("trace-slow", 0, "also retain unsampled calls at least this slow (tail sampling; 0 disables)")
	journalPath := flag.String("journal", "", "attach a write-ahead journal backed by this host file (with -restore: replay it first, then append)")
	checkpointPath := flag.String("checkpoint", "", "write a checkpoint of the final world to this file after a clean run")
	restorePath := flag.String("restore", "", "boot from this checkpoint file instead of a fresh world")
	flag.Parse()

	if *list {
		fmt.Println("agents:")
		for _, n := range agents.Names() {
			fmt.Println("  " + n)
		}
		fmt.Println("programs (in /bin):")
		for _, n := range apps.Names() {
			fmt.Println("  " + n)
		}
		return
	}

	argv := flag.Args()
	if len(argv) == 0 {
		fmt.Fprintln(os.Stderr, "usage: agentrun [-a agent[=arg]]... -- PROGRAM [args...]")
		os.Exit(2)
	}

	// The flags are a world.Spec in command-line clothing. The lifecycle
	// layer owns the sequencing (restore vs fresh boot, journal replay
	// with torn-tail cutting, the post-recovery fsck gate, injector
	// crash hooks freezing the store); this program is a pure parser
	// plus end-of-run reporting.
	spec := apps.Spec()
	spec.Name = "agentrun"
	spec.Agents = specs
	spec.RestorePath = *restorePath
	spec.JournalPath = *journalPath
	spec.Inject = *inject
	spec.Telemetry = true
	spec.Mirror = os.Stdout
	if *traceOut != "" || *traceSample >= 0 || *traceSlow > 0 {
		sample := *traceSample
		if sample < 0 {
			sample = 1 // -trace-out alone means "trace everything"
		}
		spec.Trace = &world.TraceSpec{
			Sample:     sample,
			Slow:       *traceSlow,
			TailErrors: *traceSlow > 0 || sample < 1,
		}
	}
	if *supervise != "off" {
		spec.Supervise = &world.SuperviseSpec{Mode: *supervise, Errno: *superviseErrno}
	}
	// A quarantine is the crash-recorder moment for an agent: say which
	// layer was fenced off and dump the recent-event ring, whose
	// supervise:* events carry the layer name.
	var w *world.World
	spec.OnQuarantine = func(layer string, stack []byte) {
		fmt.Fprintf(os.Stderr, "agentrun: layer %q quarantined after repeated failures\n", layer)
		if w != nil && w.Telemetry() != nil {
			w.Telemetry().Snapshot().WriteFlight(os.Stderr)
		}
	}

	w, err := world.Boot(spec)
	if err != nil {
		fatal(err)
	}
	if w.Torn != nil {
		fmt.Fprintln(os.Stderr, "agentrun:", w.Torn.Error())
	}
	if w.Replayed() > 0 {
		fmt.Fprintf(os.Stderr, "agentrun: journal: replayed %d records (%d already checkpointed)\n",
			w.Applied, w.Skipped)
	}
	if *traceKernel {
		w.Kernel().SetTracer(stderrTracer{})
	}

	res, err := w.Exec(world.ExecRequest{Argv: argv, Feed: *feed})
	if err != nil {
		fatal(err)
	}

	w.FinishReports(os.Stderr)
	if inj := w.Injector(); inj != nil {
		fmt.Fprint(os.Stderr, inj.Summary())
	}

	if jw := w.Kernel().Journal(); jw != nil && !w.Crashed() {
		// Final group-commit barrier: a clean exit leaves a complete
		// journal file. (A crashed world's store is frozen as-is.)
		if err := jw.Commit(); err != nil {
			fmt.Fprintln(os.Stderr, "agentrun: journal:", err)
		}
	}
	if *checkpointPath != "" {
		if w.Crashed() {
			fmt.Fprintln(os.Stderr, "agentrun: world crashed; no checkpoint written (recover from the journal)")
		} else {
			f, err := os.Create(*checkpointPath)
			if err != nil {
				fatal(err)
			}
			werr := w.Checkpoint(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fatal(werr)
			}
			fmt.Fprintf(os.Stderr, "agentrun: checkpoint written to %s\n", *checkpointPath)
		}
	}

	if w.Tracer() != nil && *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		werr := w.Tracer().WriteChrome(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fatal(werr)
		}
		spans, dropped := w.Tracer().Stats()
		fmt.Fprintf(os.Stderr, "agentrun: wrote %d spans to %s (%d dropped)\n", spans-dropped, *traceOut, dropped)
	}

	snap := w.Telemetry().Snapshot()
	if *stats {
		snap.WriteText(os.Stderr)
	}
	if *statsJSON {
		if err := snap.WriteJSON(os.Stderr); err != nil {
			fatal(err)
		}
	}

	if !res.Exited() {
		fmt.Fprintf(os.Stderr, "agentrun: %s killed by %s\n", argv[0], res.Signal)
		// A crash recorder's whole point: dump the recent-event ring when
		// the program dies abnormally, whether or not it was asked for —
		// and persist it (plus the span trace) to $ARTIFACT_DIR so CI
		// keeps the forensics even though stderr scrolls away.
		snap.WriteFlight(os.Stderr)
		writeDeathArtifacts(snap, w.Tracer())
		os.Exit(res.Status)
	}
	if *flightDump {
		snap.WriteFlight(os.Stderr)
	}
	os.Exit(res.Status)
}

// writeDeathArtifacts writes the flight ring and span trace as files in
// $ARTIFACT_DIR when the program dies on a signal. An injected crash is
// an expected death, so a soak harness exits nonzero here without any
// test framework marking failure — the artifacts must not depend on one.
func writeDeathArtifacts(snap telemetry.Snapshot, tr *trace.Tracer) {
	dir := os.Getenv("ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "agentrun: artifacts:", err)
		return
	}
	name := fmt.Sprintf("agentrun-%d", os.Getpid())
	var flight bytes.Buffer
	snap.WriteFlight(&flight)
	if err := os.WriteFile(filepath.Join(dir, name+"-flight.txt"), flight.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "agentrun: artifacts:", err)
	}
	if tr != nil {
		var spans bytes.Buffer
		if tr.WriteChrome(&spans) == nil {
			if err := os.WriteFile(filepath.Join(dir, name+"-trace.json"), spans.Bytes(), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "agentrun: artifacts:", err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "agentrun: wrote death artifacts %s-* in %s\n", name, dir)
}

// stderrTracer prints kernel file-reference trace events, one per line.
type stderrTracer struct{}

func (stderrTracer) Event(e kernel.TraceEvent) {
	line := fmt.Sprintf("ktrace: pid %d %s", e.PID, e.Op)
	if e.Path != "" {
		line += " " + e.Path
	}
	if e.Path2 != "" {
		line += " -> " + e.Path2
	}
	if e.FD >= 0 && e.Path == "" {
		line += fmt.Sprintf(" fd=%d", e.FD)
	}
	if e.Err != sys.OK {
		line += " [" + e.Err.Error() + "]"
	}
	fmt.Fprintln(os.Stderr, line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "agentrun:", err)
	os.Exit(1)
}

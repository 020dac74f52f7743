package world_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"interpose/internal/apps"
	"interpose/internal/kernel"
	"interpose/internal/world"
)

// boot boots a world from spec and registers its teardown.
func boot(t *testing.T, spec world.Spec) *world.World {
	t.Helper()
	w, err := world.Boot(spec)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	t.Cleanup(func() {
		if err := w.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return w
}

// run executes argv in w, failing the test on transport errors.
func run(t *testing.T, w *world.World, argv ...string) world.ExecResult {
	t.Helper()
	res, err := w.Exec(world.ExecRequest{Argv: argv})
	if err != nil {
		t.Fatalf("exec %v: %v", argv, err)
	}
	return res
}

func TestBootExec(t *testing.T) {
	w := boot(t, apps.Spec())
	res := run(t, w, "echo", "hello", "world")
	if res.Status != 0 || !res.Exited() {
		t.Fatalf("echo: status %d signal %q", res.Status, res.Signal)
	}
	if res.Output != "hello world\n" {
		t.Fatalf("echo output %q", res.Output)
	}
	if res.Elapsed <= 0 {
		t.Fatalf("elapsed %v", res.Elapsed)
	}
}

func TestExecFeedAndEnv(t *testing.T) {
	w := boot(t, apps.Spec())
	res, err := w.Exec(world.ExecRequest{Argv: []string{"cat"}, Feed: "a b c\n"})
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if res.Status != 0 {
		t.Fatalf("cat status %d: %s", res.Status, res.Output)
	}
	if !strings.Contains(res.Output, "a b c") {
		t.Fatalf("cat output %q", res.Output)
	}
	// A program that reads past its feed sees EOF, not a hang; and a
	// second session's console starts clean.
	res = run(t, w, "cat")
	if res.Output != "" {
		t.Fatalf("second session inherited console output %q", res.Output)
	}
}

func TestSetupHooksAndAgents(t *testing.T) {
	spec := apps.Spec()
	spec.Setup = append(spec.Setup, func(k *kernel.Kernel) error { return apps.SetupBenchFiles(k) })
	spec.Agents = []string{"trace"}
	w := boot(t, spec)
	if len(w.Stack()) != 1 {
		t.Fatalf("stack size %d", len(w.Stack()))
	}
	res := run(t, w, "cat", "/usr/lib/bench/data1k")
	if res.Status != 0 {
		t.Fatalf("cat fixture: status %d: %s", res.Status, res.Output)
	}
	// The trace agent reports interleaved on the console.
	if !strings.Contains(res.Output, `open("/usr/lib/bench/data1k"`) {
		t.Fatalf("trace lines missing from session output:\n%s", res.Output)
	}
}

func TestRlimitBudget(t *testing.T) {
	spec := apps.Spec()
	// Console is fds 0-2; a ceiling of 3 leaves no room for any open.
	spec.Rlimits = map[string]uint64{"nofile": 3}
	w := boot(t, spec)
	res := run(t, w, "cat", "/bin/echo")
	if res.Status == 0 {
		t.Fatalf("cat under nofile=3 succeeded: %q", res.Output)
	}

	bad := apps.Spec()
	bad.Rlimits = map[string]uint64{"nosuch": 1}
	wb, err := world.Boot(bad)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer wb.Close()
	if _, err := wb.Exec(world.ExecRequest{Argv: []string{"echo", "hi"}}); err == nil {
		t.Fatal("unknown rlimit name accepted")
	}
}

// TestExecErrorsReapProc: every Exec failure after the process is
// published — bad program, bad rlimit name — must retire it, or a
// tenant repeatedly sending bad argv grows the process table (and its
// address spaces) without bound in a long-lived daemon.
func TestExecErrorsReapProc(t *testing.T) {
	w := boot(t, apps.Spec())
	for i := 0; i < 10; i++ {
		if _, err := w.Exec(world.ExecRequest{Argv: []string{"no-such-program"}}); err == nil {
			t.Fatal("exec of nonexistent program succeeded")
		}
	}
	if n := w.Kernel().ProcCount(); n != 0 {
		t.Fatalf("%d procs left after failed execs", n)
	}

	bad := apps.Spec()
	bad.Rlimits = map[string]uint64{"nosuch": 1}
	wb := boot(t, bad)
	for i := 0; i < 10; i++ {
		if _, err := wb.Exec(world.ExecRequest{Argv: []string{"echo", "hi"}}); err == nil {
			t.Fatal("unknown rlimit name accepted")
		}
	}
	if n := wb.Kernel().ProcCount(); n != 0 {
		t.Fatalf("%d procs left after failed rlimit execs", n)
	}
}

func TestJournalRecovery(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "w.jnl")
	spec := apps.Spec()
	spec.JournalPath = jpath

	w, err := world.Boot(spec)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	res, err := w.Exec(world.ExecRequest{Argv: []string{"sh", "-c", "echo durable > /state"}})
	if err != nil || res.Status != 0 {
		t.Fatalf("write session: %v status %d %s", err, res.Status, res.Output)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// A second incarnation booted with the same journal file replays the
	// mutation onto a fresh world.
	w2 := boot(t, spec)
	if w2.Replayed() == 0 {
		t.Fatal("no journal records replayed")
	}
	res = run(t, w2, "cat", "/state")
	if res.Status != 0 || res.Output != "durable\n" {
		t.Fatalf("recovered state: status %d output %q", res.Status, res.Output)
	}
}

func TestCheckpointRestore(t *testing.T) {
	w := boot(t, apps.Spec())
	res := run(t, w, "sh", "-c", "echo snap > /state")
	if res.Status != 0 {
		t.Fatalf("write: status %d: %s", res.Status, res.Output)
	}
	var snap bytes.Buffer
	if err := w.Checkpoint(&snap); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	tmpl, err := world.Load("snap", apps.Register, &snap)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	t.Cleanup(func() { tmpl.Close() })
	// Setup hooks must NOT run on a restore: the checkpoint carries the
	// filesystem, and re-running fixtures would clobber it.
	spec := apps.Spec()
	ranSetup := false
	spec.Setup = append(spec.Setup, func(*kernel.Kernel) error {
		ranSetup = true
		return nil
	})
	w2, err := world.Fork(tmpl, spec)
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	t.Cleanup(func() { w2.Close() })
	if ranSetup {
		t.Fatal("Setup hook ran on a restored world")
	}
	res = run(t, w2, "cat", "/state")
	if res.Status != 0 || res.Output != "snap\n" {
		t.Fatalf("restored state: status %d output %q", res.Status, res.Output)
	}
}

func TestCrashFreezesJournal(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "w.jnl")
	spec := apps.Spec()
	spec.JournalPath = jpath
	spec.Inject = "seed=7,open:/boom=crash@1"
	w, err := world.Boot(spec)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	res, err := w.Exec(world.ExecRequest{Argv: []string{"sh", "-c", "echo a > /pre"}})
	if err != nil || res.Status != 0 {
		t.Fatalf("pre-crash session: %v status %d %s", err, res.Status, res.Output)
	}
	// Group commit: /pre is only durable once the pending group reaches
	// the store, and the crash freezes the store as-is.
	if err := w.Kernel().Journal().Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	res, err = w.Exec(world.ExecRequest{Argv: []string{"sh", "-c", "echo b > /boom"}})
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if res.Exited() && res.Status == 0 {
		t.Fatalf("session survived an injected crash: %q", res.Output)
	}
	if !w.Crashed() {
		t.Fatal("world not marked crashed")
	}
	if err := w.Checkpoint(&bytes.Buffer{}); err == nil {
		t.Fatal("checkpoint of a crashed world succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close crashed world: %v", err)
	}

	// Recovery: the journal holds the durable prefix; /pre survives.
	rec := apps.Spec()
	rec.JournalPath = jpath
	w2 := boot(t, rec)
	res = run(t, w2, "cat", "/pre")
	if res.Status != 0 || res.Output != "a\n" {
		t.Fatalf("recovered /pre: status %d output %q", res.Status, res.Output)
	}
}

func TestExecOnClosedWorld(t *testing.T) {
	w, err := world.Boot(apps.Spec())
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := w.Exec(world.ExecRequest{Argv: []string{"echo"}}); err == nil {
		t.Fatal("exec on closed world succeeded")
	}
	if err := w.Checkpoint(&bytes.Buffer{}); err == nil {
		t.Fatal("checkpoint on closed world succeeded")
	}
}

func TestBootWithoutRegistry(t *testing.T) {
	if _, err := world.Boot(world.Spec{}); err == nil {
		t.Fatal("boot without a Register hook succeeded")
	}
}

// TestAgentStackCap: a spec with more agents than the kernel's layer
// cap is refused with an error by both construction paths, instead of
// reaching PushEmulation's panic at the first session.
func TestAgentStackCap(t *testing.T) {
	deep := apps.Spec()
	for i := 0; i <= kernel.MaxLayers; i++ {
		deep.Agents = append(deep.Agents, "null")
	}
	if w, err := world.Boot(deep); err == nil {
		w.Close()
		t.Fatalf("boot with %d agents succeeded", len(deep.Agents))
	}
	base := boot(t, apps.Spec())
	if w, err := world.Fork(base, deep); err == nil {
		w.Close()
		t.Fatalf("fork with %d agents succeeded", len(deep.Agents))
	}
	// At the cap itself the stack is legal and runs.
	deep.Agents = deep.Agents[:kernel.MaxLayers]
	if res := run(t, boot(t, deep), "echo", "deep"); res.Output != "deep\n" {
		t.Fatalf("%d-agent stack: output %q", kernel.MaxLayers, res.Output)
	}
}

// openFDs counts this process's open descriptors via /proc.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestCloseLeakFree is the teardown contract for the multi-tenant
// server: a create → session → destroy cycle must return the process to
// its starting goroutine and descriptor counts, or a daemon hosting
// thousands of worlds bleeds to death. Each cycle boots a fully loaded
// world — file journal, telemetry, tracer, supervisor, injector, agent
// stack — runs a session that kills a straggler process, and closes.
func TestCloseLeakFree(t *testing.T) {
	cycles := 1000
	if testing.Short() {
		cycles = 50
	}
	dir := t.TempDir()

	cycle := func(i int) {
		spec := apps.Spec()
		spec.Name = fmt.Sprintf("cycle%d", i)
		spec.JournalPath = filepath.Join(dir, fmt.Sprintf("c%d.jnl", i%8))
		spec.Telemetry = true
		spec.Agents = []string{"trace"}
		spec.Inject = "seed=1,read=EIO@0.000001"
		spec.Supervise = &world.SuperviseSpec{Mode: "strict"}
		w, err := world.Boot(spec)
		if err != nil {
			t.Fatalf("cycle %d: boot: %v", i, err)
		}
		res, err := w.Exec(world.ExecRequest{Argv: []string{"sh", "-c", "echo up > /up; cat /up"}})
		if err != nil {
			t.Fatalf("cycle %d: exec: %v", i, err)
		}
		if res.Status != 0 {
			t.Fatalf("cycle %d: status %d: %s", i, res.Status, res.Output)
		}
		// A straggler guest no session waits for: Close must kill and
		// reap it (and its goroutine), not just finished sessions.
		p := w.Kernel().NewProc()
		if err := p.OpenConsole(); err != nil {
			t.Fatalf("cycle %d: console: %v", i, err)
		}
		if err := p.Start("/bin/sleep", []string{"sleep", "3600"}, []string{"PATH=/bin"}); err != nil {
			t.Fatalf("cycle %d: straggler: %v", i, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("cycle %d: close: %v", i, err)
		}
	}

	// Warm-up establishes the steady state (lazy runtime pools, test
	// framework goroutines) before the baseline is taken.
	for i := 0; i < 5; i++ {
		cycle(i)
	}
	runtime.GC()
	baseGoroutines := runtime.NumGoroutine()
	baseFDs := openFDs(t)

	for i := 5; i < cycles; i++ {
		cycle(i)
	}

	runtime.GC()
	// Transient goroutines (supervisor cooldown timers) wind down
	// asynchronously; give them a moment before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseGoroutines {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines grew %d → %d across %d cycles:\n%s",
			baseGoroutines, g, cycles, buf[:n])
	}
	if f := openFDs(t); f > baseFDs {
		t.Fatalf("descriptors grew %d → %d across %d cycles", baseFDs, f, cycles)
	}
}

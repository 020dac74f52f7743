package world_test

import (
	"os"
	"path/filepath"
	"testing"

	"interpose/internal/apps"
	"interpose/internal/kernel"
	"interpose/internal/world"
)

// forkSpec is the template spec of the fork tests: the application set
// plus a /state file to diverge on.
func forkSpec() world.Spec {
	spec := apps.Spec()
	spec.Setup = append(spec.Setup, func(k *kernel.Kernel) error {
		return k.WriteFile("/state", []byte("template\n"), 0o644)
	})
	return spec
}

func TestForkIsolation(t *testing.T) {
	tmpl := boot(t, forkSpec())

	child, err := world.Fork(tmpl, apps.Spec())
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	t.Cleanup(func() { child.Close() })

	// The child carries the template's filesystem — programs and state —
	// without Setup having run again.
	res := run(t, child, "cat", "/state")
	if res.Status != 0 || res.Output != "template\n" {
		t.Fatalf("child state: status %d output %q", res.Status, res.Output)
	}

	// Divergence is invisible across the fork, both directions.
	res = run(t, child, "sh", "-c", "echo child > /state")
	if res.Status != 0 {
		t.Fatalf("child write: status %d: %s", res.Status, res.Output)
	}
	res = run(t, tmpl, "cat", "/state")
	if res.Status != 0 || res.Output != "template\n" {
		t.Fatalf("child write leaked into template: %q", res.Output)
	}
	res = run(t, tmpl, "sh", "-c", "echo parent > /state")
	if res.Status != 0 {
		t.Fatalf("template write: status %d: %s", res.Status, res.Output)
	}
	res = run(t, child, "cat", "/state")
	if res.Status != 0 || res.Output != "child\n" {
		t.Fatalf("template write leaked into child: %q", res.Output)
	}

	// Both sides stay fsck-clean after diverging.
	if bad := tmpl.Kernel().FS().Check(); len(bad) != 0 {
		t.Fatalf("template fsck: %v", bad)
	}
	if bad := child.Kernel().FS().Check(); len(bad) != 0 {
		t.Fatalf("child fsck: %v", bad)
	}
}

func TestForkDeclaredFacilities(t *testing.T) {
	tmpl := boot(t, forkSpec())
	spec := apps.Spec()
	spec.Telemetry = true
	spec.Agents = []string{"trace"}
	child, err := world.Fork(tmpl, spec)
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	t.Cleanup(func() { child.Close() })
	if child.Telemetry() == nil {
		t.Fatal("forked world missing its declared telemetry registry")
	}
	if len(child.Stack()) != 1 {
		t.Fatalf("forked world stack size %d, want 1", len(child.Stack()))
	}
	if tmpl.Telemetry() != nil || len(tmpl.Stack()) != 0 {
		t.Fatal("member facilities leaked onto the template")
	}
}

func TestForkClosedParent(t *testing.T) {
	tmpl, err := world.Boot(forkSpec())
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	if err := tmpl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := world.Fork(tmpl, apps.Spec()); err == nil {
		t.Fatal("fork of a closed world succeeded")
	}
}

// TestForkJournalConvergence pins the fork/journal contract from both
// directions. A journal recorded by one fork replays onto a sibling
// fork of the same template (the records are above the template's
// watermark); replaying the same journal a second time onto the
// now-converged world applies zero records — the watermark makes replay
// idempotent. And a fork taken from a journaling parent inherits the
// parent's watermark, so the parent's own journal replays onto it as
// pure skips.
func TestForkJournalConvergence(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "w.jnl")
	tmpl := boot(t, forkSpec())

	jspec := apps.Spec()
	jspec.JournalPath = jpath
	fork1, err := world.Fork(tmpl, jspec)
	if err != nil {
		t.Fatalf("fork1: %v", err)
	}
	res := run(t, fork1, "sh", "-c", "echo durable > /state")
	if res.Status != 0 {
		t.Fatalf("journaled write: status %d: %s", res.Status, res.Output)
	}
	if err := fork1.Close(); err != nil {
		t.Fatalf("close fork1: %v", err)
	}

	// First replay: a sibling fork recovers fork1's mutations from the
	// journal alone.
	fork2, err := world.Fork(tmpl, jspec)
	if err != nil {
		t.Fatalf("fork2: %v", err)
	}
	t.Cleanup(func() { fork2.Close() })
	if fork2.Applied == 0 {
		t.Fatal("sibling fork applied no journal records")
	}
	res = run(t, fork2, "cat", "/state")
	if res.Status != 0 || res.Output != "durable\n" {
		t.Fatalf("recovered state: status %d output %q", res.Status, res.Output)
	}

	// Second replay: the same journal applied again is all skips, and
	// the filesystem does not move.
	before := fork2.Kernel().FS().StateHash()
	data, rerr := os.ReadFile(jpath)
	if rerr != nil {
		t.Fatalf("read journal: %v", rerr)
	}
	applied, skipped, torn, perr := fork2.Kernel().ReplayJournal(data)
	if perr != nil || torn != nil {
		t.Fatalf("second replay: %v torn %v", perr, torn)
	}
	if applied != 0 {
		t.Fatalf("second replay applied %d records, want 0", applied)
	}
	if skipped == 0 {
		t.Fatal("second replay skipped nothing — journal vanished?")
	}
	if fork2.Kernel().FS().StateHash() != before {
		t.Fatal("second replay moved the filesystem")
	}

	// Fork of the journaling world: the child carries fork2's watermark,
	// so the journal fork2 already holds replays as pure skips.
	fork3, err := world.Fork(fork2, jspec)
	if err != nil {
		t.Fatalf("fork3: %v", err)
	}
	t.Cleanup(func() { fork3.Close() })
	if fork3.Applied != 0 {
		t.Fatalf("fork of journaling parent applied %d records, want 0", fork3.Applied)
	}
	if fork3.Skipped == 0 {
		t.Fatal("fork of journaling parent skipped nothing")
	}
	res = run(t, fork3, "cat", "/state")
	if res.Status != 0 || res.Output != "durable\n" {
		t.Fatalf("fork3 state: status %d output %q", res.Status, res.Output)
	}
}

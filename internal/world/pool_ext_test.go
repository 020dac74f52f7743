package world_test

// Exec-level pool tests against the real application set: member
// isolation under divergent writes, the gauge plumbing members carry,
// and concurrent acquire storms. The stack-internal tests (LIFO order,
// spec validation) are in pool_test.go inside the package.

import (
	"strings"
	"sync"
	"testing"

	"interpose/internal/apps"
	"interpose/internal/kernel"
	"interpose/internal/world"
)

// poolSpec is the member spec of the pool tests: the application set
// with telemetry, so gauge plumbing is exercised end to end.
func poolSpec() world.Spec {
	spec := apps.Spec()
	spec.Name = "pooltest"
	spec.Telemetry = true
	spec.Setup = append(spec.Setup, func(k *kernel.Kernel) error {
		return k.WriteFile("/state", []byte("template\n"), 0o644)
	})
	return spec
}

// newTestPool pools target forks of a bare template booted from
// poolSpec's Register and Setup; the template closes after the pool.
func newTestPool(t *testing.T, target int) *world.Pool {
	t.Helper()
	spec := poolSpec()
	tmpl, err := world.Boot(world.Spec{Name: "template", Register: spec.Register, Setup: spec.Setup})
	if err != nil {
		t.Fatalf("template: %v", err)
	}
	t.Cleanup(func() { tmpl.Close() })
	p, err := world.NewPoolFrom(tmpl, spec, target)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestPoolMemberIsolationAndGauges(t *testing.T) {
	p := newTestPool(t, 2)

	a, err := p.Acquire()
	if err != nil {
		t.Fatalf("acquire a: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := p.Acquire()
	if err != nil {
		t.Fatalf("acquire b: %v", err)
	}
	t.Cleanup(func() { b.Close() })

	// Divergent writes stay private to each member; the template keeps
	// its own state.
	for w, text := range map[*world.World]string{a: "alpha", b: "beta"} {
		res, err := w.Exec(world.ExecRequest{Argv: []string{"sh", "-c", "echo " + text + " > /state"}})
		if err != nil || res.Status != 0 {
			t.Fatalf("write %s: %v status %d", text, err, res.Status)
		}
	}
	check := func(w *world.World, want string) {
		t.Helper()
		res, err := w.Exec(world.ExecRequest{Argv: []string{"cat", "/state"}})
		if err != nil || res.Status != 0 || res.Output != want+"\n" {
			t.Fatalf("state: %v status %d output %q want %q", err, res.Status, res.Output, want)
		}
	}
	check(a, "alpha")
	check(b, "beta")
	if data, err := p.Template().Kernel().ReadFile("/state"); err != nil || string(data) != "template\n" {
		t.Fatalf("template state: %v %q", err, data)
	}

	// Everything stays fsck-clean after the divergence.
	for name, w := range map[string]*world.World{"a": a, "b": b, "template": p.Template()} {
		if bad := w.Kernel().FS().Check(); len(bad) != 0 {
			t.Fatalf("%s fsck: %v", name, bad)
		}
	}

	// The pool's gauges ride along in each member's telemetry snapshot —
	// the same rows /dev/metrics and agentrun -stats render.
	snap := a.Telemetry().Snapshot()
	found := map[string]bool{}
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "pool.") {
			found[c.Name] = true
		}
	}
	for _, want := range []string{"pool.hit", "pool.miss", "pool.size", "pool.refill.ns"} {
		if !found[want] {
			t.Fatalf("member telemetry missing gauge %s (have %v)", want, found)
		}
	}
}

func TestPoolAcquireStorm(t *testing.T) {
	p := newTestPool(t, 4)

	const goroutines = 8
	var wg sync.WaitGroup
	worlds := make([]*world.World, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w, err := p.Acquire()
			if err != nil {
				t.Errorf("acquire %d: %v", g, err)
				return
			}
			worlds[g] = w
		}(g)
	}
	wg.Wait()

	// Every acquire produced a distinct, runnable world, and
	// hits+misses accounts for all of them.
	seen := map[*world.World]bool{}
	for g, w := range worlds {
		if w == nil {
			t.Fatal("nil world from storm")
		}
		if seen[w] {
			t.Fatal("one world handed out twice")
		}
		seen[w] = true
		t.Cleanup(func() { w.Close() })
		res, err := w.Exec(world.ExecRequest{Argv: []string{"echo", "ok"}})
		if err != nil || res.Status != 0 {
			t.Fatalf("storm world %d exec: %v status %d", g, err, res.Status)
		}
	}
	if s := p.Stats(); s.Hits+s.Misses != goroutines {
		t.Fatalf("hits %d + misses %d != %d acquires", s.Hits, s.Misses, goroutines)
	}
}

package worldd_test

import (
	"net/http"
	"testing"
	"time"

	"interpose/internal/world"
	"interpose/internal/worldd"
)

// The wire spec's pool field is accepted and ignored: a tenant that
// asks for a pool is an ordinary fork of the base.

// TestPooledTenantIsolation: tenants whose specs ask for a pool are
// full worlds — divergent writes stay private, and the standard
// lifecycle (exec, info, delete) works unchanged.
func TestPooledTenantIsolation(t *testing.T) {
	c := testServer(t)

	idA := c.create(world.Spec{Name: "pooled-a", Pool: 2})
	idB := c.create(world.Spec{Name: "pooled-b", Pool: 2})
	if idA == idB {
		t.Fatal("two pooled creates returned one world")
	}

	res := c.exec(idA, "sh", "-c", "echo alpha > /state")
	if res.Status != 0 {
		t.Fatalf("write a: status %d: %s", res.Status, res.Output)
	}
	res = c.exec(idB, "sh", "-c", "echo beta > /state")
	if res.Status != 0 {
		t.Fatalf("write b: status %d: %s", res.Status, res.Output)
	}
	res = c.exec(idA, "cat", "/state")
	if res.Status != 0 || res.Output != "alpha\n" {
		t.Fatalf("tenant a state: status %d output %q", res.Status, res.Output)
	}
	res = c.exec(idB, "cat", "/state")
	if res.Status != 0 || res.Output != "beta\n" {
		t.Fatalf("tenant b state: status %d output %q", res.Status, res.Output)
	}

	// A third create sees a fresh world, not either tenant's state.
	idC := c.create(world.Spec{Name: "pooled-c", Pool: 2})
	res = c.exec(idC, "cat", "/state")
	if res.Status == 0 {
		t.Fatalf("fresh pooled tenant inherited /state: %q", res.Output)
	}

	if st := c.do("DELETE", "/1.0/worlds/"+idA, nil, nil); st != http.StatusOK {
		t.Fatalf("delete pooled tenant: status %d", st)
	}
}

// TestPooledBreakerIsolation re-runs the breaker isolation scenario on
// two tenants with one spec that asks for a pool: each gets its own
// supervisor, so one tenant's contained failures and quarantine never
// perturb the sibling.
func TestPooledBreakerIsolation(t *testing.T) {
	c := testServer(t)
	spec := world.Spec{
		Name:      "pooled-victim",
		Pool:      2,
		Agents:    []string{"faulty=seed=1,write=panic@1"},
		Telemetry: true,
		Supervise: &world.SuperviseSpec{Mode: "strict", TripThreshold: 2},
	}
	victim := c.create(spec)
	spec.Name = "pooled-sibling"
	sibling := c.create(spec)

	for i := 0; i < 4; i++ {
		// The victim's writes panic and are contained; its sessions must
		// not kill the world. The sibling shares the victim's spec but
		// not its supervisor state: reads are uninterposed there, and
		// echo's own write panics are its own breaker's business.
		vres := c.exec(victim, "echo", "doomed")
		if !vres.Exited() {
			t.Fatalf("victim session killed: %+v", vres)
		}
	}
	// The sibling's world still runs sessions and its filesystem is its
	// own — the victim's containment did not leak across tenants.
	sres := c.exec(sibling, "cat", "/bin/echo")
	if !sres.Exited() {
		t.Fatalf("sibling session killed: %+v", sres)
	}

	var m worldd.Metrics
	c.do("GET", "/1.0/metrics", nil, &m)
	var contained uint64
	for _, ctr := range m.Telemetry.Counters {
		if ctr.Name == "supervise.contained" {
			contained = ctr.Value
		}
	}
	if contained == 0 {
		t.Fatalf("no containment recorded fleet-wide: %+v", m.Telemetry.Counters)
	}
}

// TestPooledMetrics: a tenant whose spec asks for a pool shows up in
// the merged telemetry like any other, and /1.0/metrics reports no warm
// members: its one pools row counts every create as a hit, whatever the
// specs.
func TestPooledMetrics(t *testing.T) {
	c := testServer(t)

	id := c.create(world.Spec{Name: "pooled", Pool: 2, Telemetry: true})
	res := c.exec(id, "echo", "hi")
	if res.Status != 0 || res.Output != "hi\n" {
		t.Fatalf("echo: status %d output %q", res.Status, res.Output)
	}

	var m worldd.Metrics
	if st := c.do("GET", "/1.0/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if want := (worldd.PoolInfo{Hits: 1}); len(m.Pools) != 1 || m.Pools[0] != want {
		t.Fatalf("pools %+v after 1 create, want [%+v]", m.Pools, want)
	}
	if m.Telemetry.Total == 0 {
		t.Fatalf("pooled tenant missing from merged telemetry: %+v", m.Telemetry)
	}

	// Neither a second tenant of the same spec nor one of another spec
	// adds a row: there is no per-spec pool to report.
	c.create(world.Spec{Name: "pooled2", Pool: 2, Telemetry: true})
	c.create(world.Spec{Name: "other", Pool: 2})
	if st := c.do("GET", "/1.0/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if want := (worldd.PoolInfo{Hits: 3}); len(m.Pools) != 1 || m.Pools[0] != want {
		t.Fatalf("pools %+v after 3 creates, want [%+v]", m.Pools, want)
	}
}

// TestPooledRejectsFileJournal keeps the name of the check that worldd
// answered a pooled spec with a file journal by 400. The pool field is
// now ignored, so that spec is accepted and journals like any other;
// a pooled in-memory journal works as before.
func TestPooledRejectsFileJournal(t *testing.T) {
	c := testServer(t)
	for _, spec := range []world.Spec{
		{Name: "filej", Pool: 2, JournalPath: "key"},
		{Name: "memj", Pool: 1, JournalMem: true},
	} {
		id := c.create(spec)
		res := c.exec(id, "sh", "-c", "echo ok > /state; cat /state")
		if res.Status != 0 || res.Output != "ok\n" {
			t.Fatalf("%s: journaled pooled write: status %d output %q", spec.Name, res.Status, res.Output)
		}
	}
}

// TestPooledRecoveryUsesPool keeps the name of the check that a pooled
// tenant's replacement came from its warm pool. Recovery now forks the
// base for every tenant, so a tenant with "pool":2 and a file journal
// must recover to the same outputs and StateHash as one without it.
func TestPooledRecoveryUsesPool(t *testing.T) {
	c := testServerCfg(t, worldd.Config{Health: fastHealth()})
	const poison = "seed=1,open:/boom=crash@1"
	ids := map[string]string{
		"plain":  c.create(world.Spec{Name: "plain", JournalPath: "plain", Inject: poison}),
		"pooled": c.create(world.Spec{Name: "pooled", Pool: 2, JournalPath: "pooled", Inject: poison}),
	}

	type outcome struct {
		before, after world.ExecResult
		hash          [32]byte
	}
	got := map[string]outcome{}
	for kind, id := range ids {
		var o outcome
		o.before = observe(c.exec(id, "sh", "-c", "mkdir /w; echo kept > /w/f; cat /w/f"))
		if st := execStatus(c, id, "cat", "/boom"); st != http.StatusServiceUnavailable {
			t.Fatalf("%s: poison session: status %d, want 503", kind, st)
		}
		if info := waitHealthy(t, c, id, 1, 5*time.Second); info.RebuildNs <= 0 {
			t.Fatalf("%s: rebuild time not recorded: %+v", kind, info)
		}
		o.after = observe(c.exec(id, "cat", "/w/f"))
		o.hash = c.srv.Current(id).Kernel().FS().StateHash()
		got[kind] = o
	}
	if want := (world.ExecResult{Output: "kept\n"}); got["plain"].before != want || got["plain"].after != want {
		t.Fatalf("plain tenant: %+v", got["plain"])
	}
	if got["pooled"] != got["plain"] {
		t.Fatalf("pooled tenant %+v, plain tenant %+v", got["pooled"], got["plain"])
	}
}

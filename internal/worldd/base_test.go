package worldd_test

// Boot once per daemon: every hosted world is a copy-on-write fork of
// the server's base world. These tests hold the fork to the contract a
// boot gave — a tenant cannot tell the two apart — and hold the base to
// its own: no child ever writes through to it, and Shutdown closes it
// last.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"interpose/internal/apps"
	"interpose/internal/image"
	"interpose/internal/kernel"
	"interpose/internal/libc"
	"interpose/internal/sys"
	"interpose/internal/world"
	"interpose/internal/worldd"
)

// fixtures is the benchmark's fixture set at test scale: a make tree
// under /src and a manuscript under /doc.
var fixtures = []func(*kernel.Kernel) error{
	func(k *kernel.Kernel) error { return apps.GenMakeTree(k, "/src", 4) },
	func(k *kernel.Kernel) error {
		_, err := apps.GenDissertation(k, "/doc", 2, 2, 2)
		return err
	},
}

// workload is the seeded session sequence every construction path
// runs: the tenant-churn write session, a rebuild of the make tree, and
// a listing of the fixture manuscript.
var workload = []world.ExecRequest{
	{Argv: []string{"sh", "-c", "mkdir /w; cd /w; cp /doc/chapter01.mss a; cp a b; cat a b > c; mv c d; wc d; rm a"}},
	{Argv: []string{"sh", "-c", "cd /src; touch defs.h; mk all"}},
	{Argv: []string{"ls", "-l", "/doc"}},
}

// outcome is what a tenant can observe of a workload run: each
// session's exit status, signal and output, and the final filesystem.
type outcome struct {
	sessions []world.ExecResult
	hash     [32]byte
}

// observe keeps the observable part of a session result.
func observe(res world.ExecResult) world.ExecResult {
	res.Elapsed = 0
	return res
}

// runDirect runs the workload on a world built by the host and closes it.
func runDirect(t *testing.T, w *world.World) outcome {
	t.Helper()
	defer w.Close()
	var out outcome
	for _, req := range workload {
		res, err := w.Exec(req)
		if err != nil {
			t.Fatalf("%v: %v", req.Argv, err)
		}
		out.sessions = append(out.sessions, observe(res))
	}
	out.hash = w.Kernel().FS().StateHash()
	return out
}

// TestConstructionPathsAgree runs one workload on every way a world is
// built — a host-side world.Boot, a world.Fork of a bare base, a
// world.Boot restored from a checkpoint of that base, and a journaled
// worldd tenant that an injected fault crashes mid-workload and the
// watchdog rebuilds (a fork of the daemon's base with the journal
// replayed) — and requires identical exit statuses, outputs and
// FS.StateHash on all four. This is the transparency check for
// boot-once-per-daemon: a tenant must not be able to tell a fork or a
// restore from a boot.
//
// One difference is deliberate and invisible here: fixture mtimes are
// the base's boot time, not the tenant's create time, and StateHash
// leaves timestamps out by
// design (replay reassigns them from the recovery clock). The workload
// observes no absolute time: ls -l prints no dates, and mk compares a
// freshly touched defs.h against fixtures that are older on every path.
func TestConstructionPathsAgree(t *testing.T) {
	outcomes := map[string]outcome{}

	booted, err := world.Boot(world.Spec{Name: "boot", Register: apps.Register, Setup: fixtures})
	if err != nil {
		t.Fatal(err)
	}
	outcomes["boot"] = runDirect(t, booted)

	base, err := world.Boot(world.Spec{Name: "base", Register: apps.Register, Setup: fixtures})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	forked, err := world.Fork(base, apps.Spec())
	if err != nil {
		t.Fatal(err)
	}
	outcomes["fork"] = runDirect(t, forked)

	// The base is frozen now; its checkpoint reads through the image.
	var ckpt bytes.Buffer
	if err := base.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	restoreSpec := apps.Spec()
	restoreSpec.Name = "restore"
	restoreSpec.RestoreFrom = &ckpt
	restored, err := world.Boot(restoreSpec)
	if err != nil {
		t.Fatal(err)
	}
	outcomes["restore"] = runDirect(t, restored)

	// The daemon tenant: the write sessions land in its file journal, a
	// poison open crashes the machine, and the last session runs on the
	// rebuilt world. Default probe cadence and session deadline, so a
	// slow mk under -race is never mistaken for a wedge.
	c := testServerCfg(t, worldd.Config{Setup: fixtures, Health: worldd.HealthConfig{
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Seed:        1,
	}})
	id := c.create(world.Spec{Name: "diff", JournalPath: "diff", Inject: "seed=1,open:/boom=crash@1"})
	var tenant outcome
	for _, req := range workload[:2] {
		tenant.sessions = append(tenant.sessions, observe(c.exec(id, req.Argv...)))
	}
	if st := execStatus(c, id, "cat", "/boom"); st != http.StatusServiceUnavailable {
		t.Fatalf("poison session: status %d, want 503", st)
	}
	waitHealthy(t, c, id, 1, 10*time.Second)
	tenant.sessions = append(tenant.sessions, observe(c.exec(id, workload[2].Argv...)))
	tenant.hash = c.srv.Current(id).Kernel().FS().StateHash()
	outcomes["worldd-rebuilt"] = tenant

	want := outcomes["boot"]
	for path, got := range outcomes {
		for i, res := range got.sessions {
			if res != want.sessions[i] {
				t.Errorf("%s: session %v = %+v, boot gave %+v", path, workload[i].Argv, res, want.sessions[i])
			}
		}
		if got.hash != want.hash {
			t.Errorf("%s: StateHash %x, boot gave %x", path, got.hash, want.hash)
		}
	}
	if t.Failed() {
		return
	}
	for i, res := range want.sessions {
		if !res.Exited() || res.Status != 0 {
			t.Fatalf("session %v failed on every path: %+v", workload[i].Argv, res)
		}
	}
}

// registerPoke adds to the application set a program the shell
// utilities cannot stand in for: "poke FILE" overwrites FILE's first
// bytes in place (no truncate, no growth). Every other write path
// allocates a fresh data array, so only an in-place write can reach an
// array the file still shares with the base.
func registerPoke(r *image.Registry) {
	apps.Register(r)
	r.Register("poke", libc.Main(func(t *libc.T) int {
		fd, err := t.Open(t.Args[1], sys.O_WRONLY, 0)
		if err != sys.OK {
			t.Errorf("open: %v", err)
			return 1
		}
		if _, err := t.Write(fd, []byte("POKE")); err != sys.OK {
			t.Errorf("write: %v", err)
			return 1
		}
		return 0
	}))
}

// TestBaseNoWriteThrough soaks the daemon with booted create /
// exec(write) / delete cycles — each session overwrites in place,
// truncates, appends to and deletes fixture files the base shares
// copy-on-write — and checks that
// goroutine and descriptor counts stay flat, that the base's StateHash
// never moves (no child wrote through a shared data array), and that
// Shutdown closes the base after every tenant.
func TestBaseNoWriteThrough(t *testing.T) {
	cycles := 1000
	if testing.Short() {
		cycles = 100
	}
	srv, err := worldd.New(worldd.Config{Register: registerPoke, Setup: fixtures, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := &client{t: t, base: hs.URL, hc: hs.Client(), srv: srv}
	want := srv.Base().Kernel().FS().StateHash()

	// A tenant lives through the soak, so Shutdown has one to close
	// before the base.
	resident := c.create(world.Spec{Name: "resident"})
	n := 0
	cycle := func() {
		// Alternate a file journal (a host descriptor per tenant, a fresh
		// key each time: a reused key would replay its predecessor) and
		// an in-memory one.
		i := n
		n++
		spec := world.Spec{Name: "soak", JournalMem: i%2 == 1}
		if i%2 == 0 {
			spec.JournalPath = fmt.Sprintf("soak%d", i)
		}
		id := c.create(spec)
		res := c.exec(id, "sh", "-c",
			"poke /doc/chapter02.mss; echo x >> /doc/chapter01.mss; echo y > /src/defs.h; cp /doc/chapter02.mss /doc/copy; rm /src/Makefile")
		if res.Status != 0 {
			t.Fatalf("cycle %d: write session: %+v", i, res)
		}
		if st := c.do("DELETE", "/1.0/worlds/"+id, nil, nil); st != http.StatusOK {
			t.Fatalf("cycle %d: delete: status %d", i, st)
		}
	}
	for i := 0; i < 20; i++ { // warm every path before the baselines
		cycle()
	}
	c.hc.CloseIdleConnections()
	runtime.GC()
	baseGoroutines, baseFDs := runtime.NumGoroutine(), countFDs(t)

	for i := 0; i < cycles; i++ {
		cycle()
	}

	c.hc.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		g, f := runtime.NumGoroutine(), countFDs(t)
		if g <= baseGoroutines+4 && f <= baseFDs+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("growth after %d cycles: goroutines %d -> %d, fds %d -> %d", cycles, baseGoroutines, g, baseFDs, f)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Base().Kernel().FS().StateHash(); got != want {
		t.Fatalf("base StateHash moved: %x -> %x (a child wrote through)", want, got)
	}
	if res := c.exec(resident, "sh", "-c", "echo y > /src/defs.h"); res.Status != 0 {
		t.Fatalf("resident tenant: %+v", res)
	}

	hs.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if w, err := world.Fork(srv.Base(), apps.Spec()); err == nil {
		w.Close()
		t.Fatal("base still open after Shutdown")
	}
}

package worldd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"interpose/internal/apps"
	"interpose/internal/kernel"
	"interpose/internal/world"
	"interpose/internal/worldd"
)

// testServer boots a server over httptest and returns a small typed
// client for it.
func testServer(t *testing.T) *client {
	t.Helper()
	srv, err := worldd.New(worldd.Config{Register: apps.Register, StateDir: t.TempDir()})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return &client{t: t, base: hs.URL, hc: hs.Client(), srv: srv}
}

type client struct {
	t    *testing.T
	base string
	hc   *http.Client
	srv  *worldd.Server
}

// do sends a JSON request and decodes a JSON response, returning the
// HTTP status.
func (c *client) do(method, path string, body, out any) int {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatalf("request: %v", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// create makes a world and returns its id, failing on error.
func (c *client) create(spec world.Spec) string {
	c.t.Helper()
	var info worldd.Info
	if st := c.do("POST", "/1.0/worlds", spec, &info); st != http.StatusCreated {
		c.t.Fatalf("create: status %d", st)
	}
	return info.ID
}

// exec runs a session, failing on transport (not session) errors.
func (c *client) exec(id string, argv ...string) world.ExecResult {
	c.t.Helper()
	var res world.ExecResult
	if st := c.do("POST", "/1.0/worlds/"+id+"/exec", world.ExecRequest{Argv: argv}, &res); st != http.StatusOK {
		c.t.Fatalf("exec %v: status %d", argv, st)
	}
	return res
}

func TestWorldLifecycleAPI(t *testing.T) {
	c := testServer(t)

	id := c.create(world.Spec{Name: "tenant1", Telemetry: true})
	res := c.exec(id, "echo", "hello")
	if res.Status != 0 || res.Output != "hello\n" {
		t.Fatalf("echo: status %d output %q", res.Status, res.Output)
	}

	var info worldd.Info
	if st := c.do("GET", "/1.0/worlds/"+id, nil, &info); st != http.StatusOK {
		t.Fatalf("get: status %d", st)
	}
	if info.Sessions != 1 || info.Name != "tenant1" {
		t.Fatalf("info %+v", info)
	}

	var list []worldd.Info
	if st := c.do("GET", "/1.0/worlds", nil, &list); st != http.StatusOK || len(list) != 1 {
		t.Fatalf("list: status %d, %d worlds", st, len(list))
	}

	var m worldd.Metrics
	if st := c.do("GET", "/1.0/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if m.Worlds != 1 || m.Sessions != 1 {
		t.Fatalf("metrics %+v", m)
	}
	// The tenant had telemetry on, so the fleet view carries its rows.
	if m.Telemetry.Total == 0 || len(m.Telemetry.Syscalls) == 0 {
		t.Fatalf("merged telemetry empty: %+v", m.Telemetry)
	}

	if st := c.do("DELETE", "/1.0/worlds/"+id, nil, nil); st != http.StatusOK {
		t.Fatalf("delete: status %d", st)
	}
	if st := c.do("DELETE", "/1.0/worlds/"+id, nil, nil); st != http.StatusNotFound {
		t.Fatalf("second delete: status %d", st)
	}
	if st := c.do("POST", "/1.0/worlds/"+id+"/exec", world.ExecRequest{Argv: []string{"echo"}}, nil); st != http.StatusNotFound {
		t.Fatalf("exec after delete: status %d", st)
	}
	if c.srv.Worlds() != 0 {
		t.Fatalf("%d worlds left in table", c.srv.Worlds())
	}
}

func TestBadRequests(t *testing.T) {
	c := testServer(t)
	req, _ := http.NewRequest("POST", c.base+"/1.0/worlds", strings.NewReader("{not json"))
	resp, err := c.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d", resp.StatusCode)
	}

	id := c.create(world.Spec{})
	var body map[string]string
	if st := c.do("POST", "/1.0/worlds/"+id+"/exec", world.ExecRequest{}, &body); st != http.StatusConflict {
		t.Fatalf("empty argv: status %d", st)
	}
	if !strings.Contains(body["error"], "argv") {
		t.Fatalf("error body %+v", body)
	}
}

// TestCreateRefusesDeepStack: an agent stack deeper than the kernel's
// layer cap is a bad spec, refused at create (400) with nothing left in
// the table, rather than a panic in the tenant's first session.
func TestCreateRefusesDeepStack(t *testing.T) {
	c := testServer(t)
	spec := world.Spec{Name: "deep"}
	for i := 0; i <= kernel.MaxLayers; i++ {
		spec.Agents = append(spec.Agents, "null")
	}
	var body map[string]any
	if st := c.do("POST", "/1.0/worlds", spec, &body); st != http.StatusBadRequest {
		t.Fatalf("create with %d agents: status %d, want 400", len(spec.Agents), st)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "layer") {
		t.Fatalf("error body %+v", body)
	}
	if n := c.srv.Worlds(); n != 0 {
		t.Fatalf("%d worlds in table after a refused create", n)
	}
}

// TestCreateExecDestroyStorm is the concurrency contract under -race:
// many tenants creating, running sessions in, and destroying worlds at
// once, with list and metrics readers in the mix. Every session must
// come back with its own tenant's output.
func TestCreateExecDestroyStorm(t *testing.T) {
	c := testServer(t)
	const tenants = 16
	const cycles = 4

	var wg sync.WaitGroup
	errs := make(chan error, tenants*cycles)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < cycles; j++ {
				name := fmt.Sprintf("t%d-%d", i, j)
				var info worldd.Info
				if st := c.do("POST", "/1.0/worlds", world.Spec{Name: name, Telemetry: i%2 == 0}, &info); st != http.StatusCreated {
					errs <- fmt.Errorf("%s: create status %d", name, st)
					return
				}
				var res world.ExecResult
				if st := c.do("POST", "/1.0/worlds/"+info.ID+"/exec",
					world.ExecRequest{Argv: []string{"echo", name}}, &res); st != http.StatusOK {
					errs <- fmt.Errorf("%s: exec status %d", name, st)
					return
				}
				if res.Output != name+"\n" {
					errs <- fmt.Errorf("%s: cross-tenant output %q", name, res.Output)
					return
				}
				var m worldd.Metrics
				c.do("GET", "/1.0/metrics", nil, &m)
				if st := c.do("DELETE", "/1.0/worlds/"+info.ID, nil, nil); st != http.StatusOK {
					errs <- fmt.Errorf("%s: delete status %d", name, st)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if c.srv.Worlds() != 0 {
		t.Fatalf("%d worlds left after storm", c.srv.Worlds())
	}
	var m worldd.Metrics
	c.do("GET", "/1.0/metrics", nil, &m)
	if m.Sessions != tenants*cycles || m.Created != tenants*cycles || m.Closed != tenants*cycles {
		t.Fatalf("metrics after storm: %+v", m)
	}
}

// TestTenantIsolationBreaker: one tenant's panicking agent trips its
// circuit breaker; sibling sessions before, during, and after must be
// unperturbed.
func TestTenantIsolationBreaker(t *testing.T) {
	c := testServer(t)
	victim := c.create(world.Spec{
		Name:      "victim",
		Agents:    []string{"faulty=seed=1,write=panic@1"},
		Telemetry: true,
		Supervise: &world.SuperviseSpec{Mode: "strict", TripThreshold: 2},
	})
	sibling := c.create(world.Spec{Name: "sibling", Telemetry: true})

	for i := 0; i < 4; i++ {
		// Every victim write panics and is contained; the session itself
		// must not kill the server or the world.
		vres := c.exec(victim, "echo", "doomed")
		if !vres.Exited() {
			t.Fatalf("victim session killed: %+v", vres)
		}
		sres := c.exec(sibling, "echo", "fine")
		if sres.Status != 0 || sres.Output != "fine\n" {
			t.Fatalf("sibling perturbed: status %d output %q", sres.Status, sres.Output)
		}
	}

	// The breaker tripped in the victim's world (visible fleet-wide),
	// and the sibling's telemetry carries no supervision events.
	var m worldd.Metrics
	c.do("GET", "/1.0/metrics", nil, &m)
	var contained, trips uint64
	for _, ctr := range m.Telemetry.Counters {
		switch ctr.Name {
		case "supervise.contained":
			contained = ctr.Value
		case "supervise.trips":
			trips = ctr.Value
		}
	}
	if contained == 0 || trips == 0 {
		t.Fatalf("no containment recorded fleet-wide: %+v", m.Telemetry.Counters)
	}
}

// TestTenantIsolationRlimit: a tenant with an exhausted descriptor
// budget fails its own sessions only.
func TestTenantIsolationRlimit(t *testing.T) {
	c := testServer(t)
	// Console occupies fds 0-2; a ceiling of 3 leaves no room to open.
	broke := c.create(world.Spec{Name: "broke", Rlimits: map[string]uint64{"nofile": 3}})
	rich := c.create(world.Spec{Name: "rich"})

	bres := c.exec(broke, "cat", "/bin/echo")
	if bres.Status == 0 {
		t.Fatalf("broke tenant opened a file under nofile=3: %q", bres.Output)
	}
	rres := c.exec(rich, "cat", "/bin/echo")
	if rres.Status != 0 {
		t.Fatalf("rich tenant perturbed: status %d: %s", rres.Status, rres.Output)
	}
}

// TestTenantIsolationFaults: an injected fault plan in one tenant's
// kernel must not leak into a sibling's.
func TestTenantIsolationFaults(t *testing.T) {
	c := testServer(t)
	faulted := c.create(world.Spec{Name: "faulted", Inject: "seed=3,read=EIO@1"})
	clean := c.create(world.Spec{Name: "clean"})

	fres := c.exec(faulted, "cat", "/bin/echo")
	if fres.Status == 0 {
		t.Fatalf("faulted tenant read under read=EIO@1: %q", fres.Output)
	}
	cres := c.exec(clean, "cat", "/bin/echo")
	if cres.Status != 0 {
		t.Fatalf("clean tenant perturbed: status %d", cres.Status)
	}
}

// TestTenantJournalIsolation: two tenants journaling to their own keys
// recover their own state and never each other's. The wire field is a
// key — the server keeps the backing files in its own state directory.
func TestTenantJournalIsolation(t *testing.T) {
	c := testServer(t)

	a := c.create(world.Spec{Name: "a", JournalPath: "a"})
	b := c.create(world.Spec{Name: "b", JournalPath: "b"})
	if r := c.exec(a, "sh", "-c", "echo alpha > /state"); r.Status != 0 {
		t.Fatalf("a write: %d", r.Status)
	}
	if r := c.exec(b, "sh", "-c", "echo beta > /state"); r.Status != 0 {
		t.Fatalf("b write: %d", r.Status)
	}
	c.do("DELETE", "/1.0/worlds/"+a, nil, nil)
	c.do("DELETE", "/1.0/worlds/"+b, nil, nil)

	a2 := c.create(world.Spec{Name: "a2", JournalPath: "a"})
	res := c.exec(a2, "cat", "/state")
	if res.Status != 0 || res.Output != "alpha\n" {
		t.Fatalf("a2 recovered %q (status %d)", res.Output, res.Status)
	}
}

// TestJournalConfinement: the wire journal field must be a bare key —
// anything that could escape the server's state directory is rejected,
// as is any wire restore: the spec has no such field, so the strict
// decoder answers 400 (the daemon must never open host files a client
// names).
func TestJournalConfinement(t *testing.T) {
	c := testServer(t)
	for _, bad := range []string{"../evil", "/etc/passwd", "a/b", `a\b`, "..", "."} {
		var body map[string]string
		if st := c.do("POST", "/1.0/worlds", world.Spec{Name: "x", JournalPath: bad}, &body); st != http.StatusBadRequest {
			t.Errorf("journal key %q: status %d, want 400 (%+v)", bad, st, body)
		}
	}
	var body map[string]string
	if st := c.do("POST", "/1.0/worlds", json.RawMessage(`{"name":"x","restore":"/etc/hostname"}`), &body); st != http.StatusBadRequest {
		t.Fatalf("wire restore: status %d, want 400 (%+v)", st, body)
	}

	// A server with no state dir refuses file-backed journals entirely
	// (memory journals still work).
	bare, err := worldd.New(worldd.Config{Register: apps.Register})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(bare.Handler())
	defer hs.Close()
	defer bare.Shutdown(context.Background())
	bc := &client{t: t, base: hs.URL, hc: hs.Client(), srv: bare}
	if st := bc.do("POST", "/1.0/worlds", world.Spec{Name: "x", JournalPath: "a"}, nil); st != http.StatusBadRequest {
		t.Fatalf("journal without state dir: status %d, want 400", st)
	}
	id := bc.create(world.Spec{Name: "m", JournalMem: true})
	if res := bc.exec(id, "echo", "ok"); res.Status != 0 {
		t.Fatalf("mem-journal session: %d", res.Status)
	}
}

// TestJournalExclusive: one live world per journal file. A second
// create naming a held key gets 409; deleting the holder (which closes
// the file) releases it for reuse.
func TestJournalExclusive(t *testing.T) {
	c := testServer(t)
	a := c.create(world.Spec{Name: "a", JournalPath: "shared"})
	var body map[string]string
	if st := c.do("POST", "/1.0/worlds", world.Spec{Name: "b", JournalPath: "shared"}, &body); st != http.StatusConflict {
		t.Fatalf("duplicate journal key: status %d, want 409 (%+v)", st, body)
	}
	if st := c.do("DELETE", "/1.0/worlds/"+a, nil, nil); st != http.StatusOK {
		t.Fatalf("delete holder: status %d", st)
	}
	b := c.create(world.Spec{Name: "b", JournalPath: "shared"})
	if res := c.exec(b, "echo", "ok"); res.Status != 0 {
		t.Fatalf("session after release: %d", res.Status)
	}
}

// TestGracefulDrain runs the real daemon loop over a unix socket:
// worlds live, SIGTERM-equivalent Shutdown drains, creates get 503,
// and the table is empty afterward.
func TestGracefulDrain(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "worldd.sock")
	srv, err := worldd.New(worldd.Config{Register: apps.Register})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := worldd.ListenUnix(sock)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	hc := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			return (&net.Dialer{}).DialContext(ctx, "unix", sock)
		},
	}}
	c := &client{t: t, base: "http://worldd", hc: hc, srv: srv}

	id := c.create(world.Spec{Name: "drainee"})
	if res := c.exec(id, "echo", "up"); res.Status != 0 {
		t.Fatalf("session: %d", res.Status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if srv.Worlds() != 0 {
		t.Fatalf("%d worlds after drain", srv.Worlds())
	}
	// The socket no longer accepts; a late create cannot land.
	if _, err := hc.Post("http://worldd/1.0/worlds", "application/json", strings.NewReader("{}")); err == nil {
		t.Fatal("create succeeded after drain")
	}
}

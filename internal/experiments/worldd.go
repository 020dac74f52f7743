package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"interpose/internal/apps"
	"interpose/internal/world"
	"interpose/internal/worldd"
)

// The multi-tenancy table ("worldd"): what the world lifecycle layer and
// the daemon on top of it cost. Three claims are measured:
//
//   - boot: booting (and closing) one world — full application set, no
//     optional facilities — the unit of tenant creation;
//   - session: one exec round trip through the daemon's HTTP handler —
//     request decode, world lock, process launch, wait, response encode
//     — which inverts to the daemon's sessions/sec on one core;
//   - idle-mem/world: the per-world heap floor with a 10,000-world idle
//     fleet resident in one process, measured as the GC-settled heap
//     delta divided by the fleet size, in bytes. This is the number that
//     says whether "thousands of tenants per process" is real, and it is
//     why telemetry registries (latency histograms, flight rings —
//     ~150 KB a world) are opt-in per tenant rather than always-on:
//     anything attached unconditionally at boot shows up here multiplied
//     by ten thousand.
//
// The session and idle-mem rows are guarded against the baseline; the
// boot row rides along unguarded (it is noisy on shared runners, and
// the crash and resil tables relation-gate boot cost).
var worlddTable = Table{Name: "worldd", run: runWorldd,
	Guards: []string{"session", "idle-mem/world"}}

// worlddFleet is the idle-fleet size of the idle-mem row.
const worlddFleet = 10000

// worlddSessions is the per-round session count of the session rows.
const worlddSessions = 200

// worlddBoots is the world count of the boot row.
const worlddBoots = 500

// heapAlloc returns the GC-settled live heap.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// apiCall drives one request through the daemon handler, decoding the
// JSON response into out when non-nil.
func apiCall(h http.Handler, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code >= 300 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	if out != nil {
		return json.Unmarshal(rec.Body.Bytes(), out)
	}
	return nil
}

// measureSessions creates one tenant from spec in a daemon configured
// by cfg and times the exec round trip of /bin/true through the
// daemon's handler: worlddSessions sessions a round, best of runs.
func measureSessions(runs int, cfg worldd.Config, spec []byte) (time.Duration, error) {
	srv, err := worldd.New(cfg)
	if err != nil {
		return 0, err
	}
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	var info worldd.Info
	if err := apiCall(h, "POST", "/1.0/worlds", spec, &info); err != nil {
		return 0, err
	}
	execPath, execBody := "/1.0/worlds/"+info.ID+"/exec", []byte(`{"argv":["true"]}`)
	return bestOf(runs, func() (time.Duration, error) {
		return perOp(worlddSessions, func() error {
			var res world.ExecResult
			if err := apiCall(h, "POST", execPath, execBody, &res); err != nil {
				return err
			}
			if res.Status != 0 {
				return fmt.Errorf("session exited %d", res.Status)
			}
			return nil
		})
	})
}

func runWorldd(w io.Writer, runs, _ int) ([]BenchEntry, error) {
	boot, err := bootClose(worlddBoots)
	if err != nil {
		return nil, err
	}

	// Health disabled in both daemons: a watchdog probing a 10,000-world
	// idle fleet would measure the probes, not the daemon (the resil
	// table prices the watchdog on its own).
	cfg := worldd.Config{
		Register: apps.Register,
		Health:   worldd.HealthConfig{Disabled: true},
	}
	session, err := measureSessions(runs, cfg, []byte(`{"name":"bench"}`))
	if err != nil {
		return nil, err
	}

	// Idle fleet: the per-world heap floor at 10k worlds, created and
	// later drained through the daemon itself so the table and teardown
	// paths are the ones a deployment pays.
	srv, err := worldd.New(cfg)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	base := heapAlloc()
	createBody := []byte(`{"name":"idle"}`)
	for i := 0; i < worlddFleet; i++ {
		if err := apiCall(h, "POST", "/1.0/worlds", createBody, nil); err != nil {
			srv.Shutdown(context.Background())
			return nil, err
		}
	}
	perWorld := int64((heapAlloc() - base) / worlddFleet)
	if err := srv.Shutdown(context.Background()); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	es := []BenchEntry{
		entry("boot", boot),
		entry("session", session),
		{Row: "idle-mem/world", NsPerOp: perWorld, Unit: "B"},
	}
	printRows(w, fmt.Sprintf("Multi-tenant worlds (lifecycle layer + worldd, %d-world idle fleet):", worlddFleet),
		es, func(e BenchEntry) string {
			switch e.Row {
			case "session":
				return fmt.Sprintf("ns   (%.0f sessions/sec)", 1e9/float64(e.NsPerOp))
			case "idle-mem/world":
				return fmt.Sprintf("B    (%.1f MB for the fleet)", float64(e.NsPerOp)*worlddFleet/1e6)
			}
			return e.Unit
		})
	return es, nil
}

package worldd_test

// The multi-tenant chaos soak: crash, hang, and panic faults rotate
// across tenants under concurrent load while the suite asserts the
// self-healing contract — zero daemon downtime (every metrics poll
// answers), bounded time-to-recovery (each kill heals within the poll
// deadline), sibling tenants unperturbed (the control tenant's sessions
// never fail), and no goroutine or fd growth across the kill/recover
// cycles. Seeded throughout: the fault plans, the agent faults, and the
// watchdog's backoff jitter all replay the same schedule.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interpose/internal/world"
	"interpose/internal/worldd"
)

// countFDs returns the process's open descriptor count.
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

func TestChaosSoak(t *testing.T) {
	cycles := 200
	if testing.Short() {
		cycles = 30
	}
	c := testServerCfg(t, worldd.Config{Health: worldd.HealthConfig{
		ProbeInterval: 2 * time.Millisecond,
		// Generous probe timeout: a loaded -race run must not turn a
		// slow probe into a false death.
		ProbeTimeout:    2 * time.Second,
		SessionDeadline: 60 * time.Millisecond,
		RestartBudget:   1 << 20,
		RestartWindow:   time.Hour,
		BackoffBase:     time.Millisecond,
		BackoffMax:      8 * time.Millisecond,
		Seed:            42,
	}})

	// The victims: a journaled tenant and a bare tenant that die by
	// injected kernel crash, and one whose agent wedges a session past
	// twice the deadline (hang > 2×SessionDeadline so the watchdog, not
	// the fault, decides the session's fate).
	victims := []string{
		c.create(world.Spec{
			Name:        "journal",
			Telemetry:   true,
			JournalPath: "chaos-j",
			Inject:      "seed=7,open:/boom=crash@1",
		}),
		c.create(world.Spec{
			Name:   "bare",
			Inject: "seed=11,open:/boom=crash@1",
		}),
		c.create(world.Spec{
			Name:   "wedge",
			Agents: []string{"faulty=seed=9,open:/wedge=hang:200ms@1"},
		}),
	}
	poisons := [][]string{
		{"cat", "/boom"},
		{"cat", "/boom"},
		{"cat", "/wedge"},
	}
	// The panic tenant: a strict supervisor contains the agent panic and
	// quarantines the layer — suspect, never dead, still serving.
	panicky := c.create(world.Spec{
		Name:      "panicky",
		Agents:    []string{"faulty=seed=5,open:/q=panic@1"},
		Supervise: &world.SuperviseSpec{Mode: "strict", TripThreshold: 1, Cooldown: -1},
	})
	control := c.create(world.Spec{Name: "control"})

	// One poison round per victim. The session dies with its world, so
	// any status is fine here — recovery is the assertion, made by
	// waitHealthy after each kill.
	kills := 0
	prev := make([]uint64, len(victims))
	kill := func(vi int) {
		body, _ := json.Marshal(world.ExecRequest{Argv: poisons[vi]})
		resp, err := c.hc.Post(c.base+"/1.0/worlds/"+victims[vi]+"/exec",
			"application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("poison %d: %v", vi, err)
		}
		resp.Body.Close()
		kills++
		info := waitHealthy(t, c, victims[vi], prev[vi]+1, 10*time.Second)
		prev[vi] = info.Restarts
	}

	// Warm up every path (journal replay, probe and
	// recovery machinery, http keep-alives) before the leak baselines.
	for vi := range victims {
		kill(vi)
	}
	c.hc.CloseIdleConnections()
	runtime.GC()
	baseGoroutines := runtime.NumGoroutine()
	baseFDs := countFDs(t)

	// Concurrent load: the control tenant's sessions must never fail —
	// not retryably, not at all — and the metrics endpoint must answer
	// every poll, or the daemon had downtime.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var controlOK, polls atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, _ := json.Marshal(world.ExecRequest{Argv: []string{"echo", "sibling"}})
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := c.hc.Post(c.base+"/1.0/worlds/"+control+"/exec",
				"application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("control session: %v", err)
				return
			}
			var res world.ExecResult
			derr := json.NewDecoder(resp.Body).Decode(&res)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || derr != nil ||
				res.Status != 0 || res.Output != "sibling\n" {
				t.Errorf("control session perturbed: status %d err %v res %+v",
					resp.StatusCode, derr, res)
				return
			}
			controlOK.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := c.hc.Get(c.base + "/1.0/metrics")
			if err != nil {
				t.Errorf("metrics poll: %v", err)
				return
			}
			var m worldd.Metrics
			derr := json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || derr != nil {
				t.Errorf("metrics poll: status %d err %v", resp.StatusCode, derr)
				return
			}
			if m.Closed > m.Created {
				t.Errorf("torn metrics: closed %d > created %d", m.Closed, m.Created)
				return
			}
			polls.Add(1)
			time.Sleep(3 * time.Millisecond)
		}
	}()

	// The soak proper: crashes dominate, a wedge every fifth cycle, a
	// contained panic every twentieth.
	rotation := []int{0, 1, 0, 1, 2}
	for cycle := 0; cycle < cycles; cycle++ {
		kill(rotation[cycle%len(rotation)])
		if cycle%20 == 10 {
			c.do("POST", "/1.0/worlds/"+panicky+"/exec",
				world.ExecRequest{Argv: []string{"cat", "/q"}}, nil)
			if res := c.exec(panicky, "echo", "contained"); res.Output != "contained\n" {
				t.Fatalf("panic tenant stopped serving: %+v", res)
			}
		}
	}

	close(stop)
	wg.Wait()
	if controlOK.Load() == 0 || polls.Load() == 0 {
		t.Fatalf("load drivers idle: control=%d polls=%d", controlOK.Load(), polls.Load())
	}

	// Fleet accounting: every kill died and recovered, nobody was
	// parked, and the panic tenant sits quarantined-suspect.
	var m worldd.Metrics
	c.do("GET", "/1.0/metrics", nil, &m)
	if m.Deaths < uint64(kills) {
		t.Errorf("deaths %d < kills %d", m.Deaths, kills)
	}
	if m.Recoveries != m.Deaths {
		t.Errorf("recoveries %d != deaths %d", m.Recoveries, m.Deaths)
	}
	if m.Parks != 0 || m.Health["parked"] != 0 || m.Health["dead"] != 0 {
		t.Errorf("parked/dead worlds after soak: parks=%d health=%v", m.Parks, m.Health)
	}
	var pi worldd.Info
	c.do("GET", "/1.0/worlds/"+panicky, nil, &pi)
	if pi.Health != "suspect" {
		t.Errorf("panic tenant health %q, want suspect", pi.Health)
	}

	// No growth: goroutines and fds settle back to the warm baseline.
	c.hc.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		g, f := runtime.NumGoroutine(), countFDs(t)
		if g <= baseGoroutines+8 && f <= baseFDs+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("leak after %d cycles: goroutines %d -> %d, fds %d -> %d\n%s",
				kills, baseGoroutines, g, baseFDs, f, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

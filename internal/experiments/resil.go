package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"interpose/internal/apps"
	"interpose/internal/world"
	"interpose/internal/worldd"
)

// The resilience table ("resil"): what self-healing worldd costs and
// what it buys. Five claims are measured:
//
//   - probe: one liveness probe (an exec of /bin/true straight through
//     the world, exactly what the watchdog runs on an idle tenant) — the
//     recurring cost of health monitoring;
//   - boot: a cold world boot + close — the recovery cost floor without
//     a warm pool, and the comparator for the recovery rows;
//   - recover/pool and recover/journal: the daemon's measured rebuild
//     time (teardown + replacement, excluding detection and backoff, as
//     reported by the world's rebuild_ns gauge) after an injected
//     kernel crash, for a pooled and a journaled tenant;
//   - session and session/admit: the daemon exec round trip without and
//     with the admission machinery engaged (global inflight gate, health
//     gate, per-tenant session cap + token bucket, none rejecting) —
//     the pair that prices the admit fast path.
//
// The probe and session/admit rows are guarded against the baseline, so
// neither the idle watchdog nor the admitted fast path can grow work as
// the health machinery evolves; the relations pin recovery-from-pool
// under cold boot and the admit path within 15% of the bare session on
// any host.
var resilTable = Table{Name: "resil", run: runResil,
	Guards: []string{"probe", "session/admit"},
	Relations: []Relation{
		{Left: "recover/pool", Right: "boot", Factor: 1.0,
			Why: "recovery through the warm pool must beat the cold boot it replaces"},
		{Left: "session/admit", Right: "session", Factor: 1.15,
			Why: "the admission gates must add no measurable cost to the admitted session fast path"},
	}}

// resilProbes is the per-round probe count of the probe row.
const resilProbes = 200

// resilBoots is the world count of the boot row.
const resilBoots = 200

// resilKills is the injected-crash count behind each recovery row.
const resilKills = 30

// measureRecovery boots a crashy tenant in a throwaway daemon, kills it
// resilKills times by injected crash, waits out each recovery, and
// returns the daemon's mean rebuild time.
func measureRecovery(spec []byte, stateDir string) (int64, error) {
	srv, err := worldd.New(worldd.Config{
		Register: apps.Register,
		StateDir: stateDir,
		Health: worldd.HealthConfig{
			// Detection is the crash hook (push), not the sweep, so the
			// interval only paces background probes; the tiny backoff
			// keeps the measured cycle close to pure rebuild.
			ProbeInterval:   50 * time.Millisecond,
			SessionDeadline: time.Minute,
			RestartBudget:   resilKills * 2,
			RestartWindow:   time.Hour,
			BackoffBase:     time.Millisecond,
			BackoffMax:      2 * time.Millisecond,
			Seed:            1,
		},
	})
	if err != nil {
		return 0, err
	}
	defer srv.Shutdown(context.Background())
	h := srv.Handler()

	var info worldd.Info
	if err := apiCall(h, "POST", "/1.0/worlds", spec, &info); err != nil {
		return 0, err
	}
	poison := []byte(`{"argv":["cat","/boom"]}`)
	for i := 0; i < resilKills; i++ {
		// The poison session dies with its world: 503 is the expected
		// answer, so the call goes out raw and only transport-level
		// trouble matters.
		apiCall(h, "POST", "/1.0/worlds/"+info.ID+"/exec", poison, nil)
		deadline := time.Now().Add(30 * time.Second)
		for {
			var in worldd.Info
			if err := apiCall(h, "GET", "/1.0/worlds/"+info.ID, nil, &in); err != nil {
				return 0, err
			}
			if in.Health == "healthy" && in.Restarts >= uint64(i+1) {
				info = in
				break
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("tenant never recovered from kill %d (%+v)", i, in)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	if info.RebuildNs <= 0 {
		return 0, fmt.Errorf("no rebuild time recorded (%+v)", info)
	}
	return info.RebuildNs, nil
}

// measureProbe times what one watchdog liveness check costs the probed
// world: resilProbes probes a round, best of runs.
func measureProbe(runs int) (time.Duration, error) {
	w, err := world.Boot(apps.Spec())
	if err != nil {
		return 0, fmt.Errorf("boot: %w", err)
	}
	defer w.Close()
	probe := world.ExecRequest{Argv: []string{"true"}}
	d, err := bestOf(runs, func() (time.Duration, error) {
		return perOp(resilProbes, func() error {
			res, err := w.Exec(probe)
			if err == nil && res.Status != 0 {
				err = fmt.Errorf("probe exited %d", res.Status)
			}
			return err
		})
	})
	if err != nil {
		return 0, err
	}
	return d, w.Close()
}

func runResil(w io.Writer, runs, _ int) ([]BenchEntry, error) {
	probe, err := measureProbe(runs)
	if err != nil {
		return nil, err
	}
	boot, err := bootClose(resilBoots)
	if err != nil {
		return nil, err
	}

	// Recovery: mean rebuild time after an injected crash, pooled vs
	// journal-replaying.
	recoverPool, err := measureRecovery(
		[]byte(`{"name":"rp","pool":2,"inject":"seed=1,open:/boom=crash@1"}`), "")
	if err != nil {
		return nil, err
	}
	stateDir, err := os.MkdirTemp("", "resil-journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)
	recoverJournal, err := measureRecovery(
		[]byte(`{"name":"rj","journal":"rj","inject":"seed=1,open:/boom=crash@1"}`), stateDir)
	if err != nil {
		return nil, err
	}

	// Sessions: the admitted fast path, bare vs fully gated.
	session, err := measureSessions(runs, worldd.Config{
		Register: apps.Register,
		Health:   worldd.HealthConfig{Disabled: true},
	}, []byte(`{"name":"bare"}`))
	if err != nil {
		return nil, err
	}
	sessionAdmit, err := measureSessions(runs, worldd.Config{
		Register: apps.Register,
	}, []byte(`{"name":"gated","admission":{"max_sessions":1024,"rate":1e9}}`))
	if err != nil {
		return nil, err
	}

	es := []BenchEntry{
		entry("probe", probe),
		entry("boot", boot),
		entry("recover/pool", time.Duration(recoverPool)),
		entry("recover/journal", time.Duration(recoverJournal)),
		entry("session", session),
		entry("session/admit", sessionAdmit),
	}
	notes := map[string]string{
		"probe":           "   (idle watchdog cost per probe)",
		"recover/pool":    "   (teardown + rebuild, detection excluded)",
		"recover/journal": "   (teardown + rebuild, detection excluded)",
		"session/admit":   "   (admission gates engaged, none rejecting)",
	}
	printRows(w, fmt.Sprintf("Self-healing worldd (%d injected crashes per recovery row):", resilKills),
		es, func(e BenchEntry) string { return "ns" + notes[e.Row] })
	return es, nil
}

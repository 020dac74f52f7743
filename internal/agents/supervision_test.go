package agents_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"interpose/internal/agents/agenttest"
	"interpose/internal/kernel"
	"interpose/internal/sys"
)

// The supervision chaos soak: mk builds a source tree under a faulty
// layer whose plan makes the agent itself panic inside its upcalls. The
// kernel supervisor must contain every panic, quarantine the layer at
// the breaker threshold, and let the retried build run to completion —
// the world never crashes, and the run replays deterministically per
// seed.
//
// The layer object is shared across retries (the breaker is keyed by
// layer identity, exactly as it is across fork), so containment history
// accumulates: a failed build is retried under the same breaker until
// the layer is fenced off and the build goes through.

// soakResult is everything one seed's soak produced.
type soakResult struct {
	rounds      int
	finalStatus sys.Word
	output      string   // concatenated console output of every round
	log         []string // injector decisions, sorted
	quarantined []string
}

// runSoak retries the build under one shared faulty layer until a round
// completes after the layer is quarantined (or the round cap trips).
func runSoak(t *testing.T, seed int, plan string, cfg kernel.SupervisorConfig) soakResult {
	t.Helper()
	k := buildWorld(t, 4)
	fa := mustFaulty(t, plan)
	sup := kernel.NewSupervisor(k, cfg)
	k.SetSupervisor(sup)

	layer := kernel.NewEmuLayer(fa)
	layer.Name = "faulty"
	layer.Interest = fa.Interests()

	var res soakResult
	var out strings.Builder
	const maxRounds = 40
	for round := 0; round < maxRounds; round++ {
		res.rounds = round + 1
		if round > 0 {
			// Remove the build products so every retry is a full rebuild,
			// not an incremental no-op: a failed chaos round leaves the
			// tree in an arbitrary state anyway.
			for i := 1; i <= 4; i++ {
				k.Remove(fmt.Sprintf("/src/prog%d", i))
			}
		}
		k.Console().TakeOutput()
		p := k.NewProc()
		if err := p.OpenConsole(); err != nil {
			t.Fatalf("seed %d round %d: console: %v", seed, round, err)
		}
		p.PushEmulation(layer)
		if err := p.Start("/bin/sh", []string{"sh", "-c", "cd /src; mk all"},
			[]string{"PATH=/bin"}); err != nil {
			t.Fatalf("seed %d round %d: start: %v", seed, round, err)
		}
		res.finalStatus = k.WaitExit(p)
		out.WriteString(k.Console().TakeOutput())
		clean := sys.WIfExited(res.finalStatus) && sys.WExitStatus(res.finalStatus) == 0
		if clean && len(sup.QuarantinedLayers()) > 0 {
			break
		}
	}
	res.output = out.String()
	for _, rec := range fa.Injector().Log() {
		res.log = append(res.log, rec.String())
	}
	sort.Strings(res.log)
	res.quarantined = sup.QuarantinedLayers()
	return res
}

func soakPlan(seed int) string {
	return fmt.Sprintf("seed=%d,write=panic@0.01,read=panic@0.01,open=panic@0.01", seed)
}

func soakConfig() kernel.SupervisorConfig {
	return kernel.SupervisorConfig{
		Mode:     kernel.SuperviseStrict,
		Window:   0,  // pure failure count: no wall-clock in the trip decision
		Cooldown: -1, // no half-open probes: quarantine is permanent, runs replay
	}
}

func TestSupervisionChaosSoak(t *testing.T) {
	defer agenttest.Watchdog(t, 4*time.Minute)()
	for _, seed := range []int{1, 2, 3, 5, 8} {
		res := runSoak(t, seed, soakPlan(seed), soakConfig())
		// The world survived: no panic ever reached a process, and the
		// retried build ends cleanly with the panicking layer fenced off.
		if strings.Contains(res.output, "panic in pid") {
			t.Fatalf("seed %d: uncontained panic:\n%s", seed, res.output)
		}
		if !sys.WIfExited(res.finalStatus) || sys.WExitStatus(res.finalStatus) != 0 {
			t.Fatalf("seed %d: no clean build in %d rounds: %#x\n%s",
				seed, res.rounds, res.finalStatus, res.output)
		}
		if len(res.quarantined) != 1 || res.quarantined[0] != "faulty" {
			t.Fatalf("seed %d: quarantined = %v, want [faulty]", seed, res.quarantined)
		}
		if len(res.log) < 3 {
			t.Fatalf("seed %d: only %d injected panics cannot have tripped the breaker", seed, len(res.log))
		}
		t.Logf("seed %d: quarantined after %d panics, clean build in round %d",
			seed, len(res.log), res.rounds)
	}
}

// TestSupervisionSoakDeterministic replays one seed from a fresh world
// and checks the injector made the identical decisions and the breaker
// reached the identical outcome — the property that makes a chaos
// failure reproducible.
func TestSupervisionSoakDeterministic(t *testing.T) {
	defer agenttest.Watchdog(t, 3*time.Minute)()
	a := runSoak(t, 3, soakPlan(3), soakConfig())
	b := runSoak(t, 3, soakPlan(3), soakConfig())
	if strings.Join(a.log, "\n") != strings.Join(b.log, "\n") {
		t.Fatalf("seed 3 diverged:\nrun1 (%d): %v\nrun2 (%d): %v",
			len(a.log), a.log, len(b.log), b.log)
	}
	if a.rounds != b.rounds || fmt.Sprint(a.quarantined) != fmt.Sprint(b.quarantined) {
		t.Fatalf("outcome diverged: rounds %d/%d, quarantined %v/%v",
			a.rounds, b.rounds, a.quarantined, b.quarantined)
	}
}

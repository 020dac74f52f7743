package main

import (
	"encoding/json"
	"fmt"
	"time"

	"interpose/internal/apps"
	"interpose/internal/world"
)

const (
	// lifeReps is how many boots, forks and pool acquires the world probe
	// times per distinct tenant spec.
	lifeReps = 8
	// journalReps is how many churn sessions the journal probe counts.
	journalReps = 8
)

// probeStacks are the paper's agent stacks the overhead probe prices.
var probeStacks = []struct{ label, spec string }{
	{"timex", timexStack},
	{"trace", traceStack},
	{"union", unionStack},
}

// probes are what direct calls into the world, agent and journal layers
// give, outside the daemon.
type probes struct {
	boot, fork, acquire, close []float64          // µs
	overhead                   map[string]float64 // µs per session, by stack label
	records, flushes           float64            // journal, per churn session
}

// hostSpec is a wire spec as worldd boots it: the same image registry
// and fixtures, without the daemon-only pool and the traced run's
// telemetry.
func hostSpec(s world.Spec) world.Spec {
	s.Register, s.Setup = apps.Register, fixtures
	s.Pool, s.Telemetry = 0, false
	return s
}

func runProbes(w *workload, rec *recorder) (*probes, error) {
	p := &probes{overhead: make(map[string]float64)}
	if err := p.lifecycle(w, rec); err != nil {
		return nil, fmt.Errorf("world probe: %w", err)
	}
	if err := p.agents(w, rec); err != nil {
		return nil, fmt.Errorf("agent probe: %w", err)
	}
	if err := p.journal(rec); err != nil {
		return nil, fmt.Errorf("journal probe: %w", err)
	}
	return p, nil
}

// lifecycle times world.Boot, world.Fork, Pool.Acquire and World.Close
// on each distinct spec the workload's tenants use (names and pool sizes
// aside; tenant-churn's is its probe spec).
func (p *probes) lifecycle(w *workload, rec *recorder) error {
	specs := w.tenants
	if len(specs) == 0 {
		specs = []world.Spec{w.probeSpec}
	}
	seen := make(map[string]bool)
	for _, s := range specs {
		s = hostSpec(s)
		s.Name = w.name
		key, _ := json.Marshal(s) // a Spec's wire fields always marshal
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true

		if err := p.repeat(rec, "world.boot", &p.boot, func() (*world.World, error) {
			return world.Boot(s)
		}); err != nil {
			return err
		}
		tmpl, err := world.Boot(s)
		if err != nil {
			return err
		}
		err = p.repeat(rec, "world.fork", &p.fork, func() (*world.World, error) {
			return world.Fork(tmpl, s)
		})
		if cerr := tmpl.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		pool, err := world.NewPool(s, lifeReps)
		if err != nil {
			return err
		}
		err = p.repeat(rec, "world.pool_acquire", &p.acquire, pool.Acquire)
		if cerr := pool.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// repeat times lifeReps calls of build into *into, and times the Close
// of every world it built.
func (p *probes) repeat(rec *recorder, name string, into *[]float64, build func() (*world.World, error)) error {
	for i := 0; i < lifeReps; i++ {
		start := time.Now()
		wd, err := build()
		if err != nil {
			return err
		}
		*into = append(*into, us(rec.probe(name, start)))
		start = time.Now()
		err = wd.Close()
		p.close = append(p.close, us(rec.probe("world.close", start)))
		if err != nil {
			return err
		}
	}
	return nil
}

// agents times the workload's probe session on a bare world and on one
// world per paper stack, interleaved round by round, and reports each
// stack's median minus the bare median: the paper's slowdown method.
func (p *probes) agents(w *workload, rec *recorder) error {
	names := []string{"agents.bare"}
	specs := []world.Spec{hostSpec(w.probeSpec)}
	for _, st := range probeStacks {
		s := hostSpec(w.probeSpec)
		s.Agents = []string{st.spec}
		names = append(names, "agents."+st.label)
		specs = append(specs, s)
	}
	var worlds []*world.World
	// Probe worlds are discarded; a failed teardown cannot skew a figure.
	defer func() {
		for _, wd := range worlds {
			wd.Close()
		}
	}()
	for _, s := range specs {
		wd, err := world.Boot(s)
		if err != nil {
			return err
		}
		worlds = append(worlds, wd)
	}
	times := make([][]float64, len(worlds))
	for round := -1; round < w.probeReps; round++ { // round -1 warms every world
		for i, wd := range worlds {
			d, err := probeSession(w, wd, specs[i], rec, names[i])
			if err != nil {
				return err
			}
			if round >= 0 {
				times[i] = append(times[i], d)
			}
		}
	}
	bare := median(times[0])
	for i, st := range probeStacks {
		p.overhead[st.label] = median(times[i+1]) - bare
	}
	return nil
}

// probeSession runs the workload's probe requests on wd — or on a fresh
// fork of it when they write — and returns µs per request.
func probeSession(w *workload, wd *world.World, spec world.Spec, rec *recorder, name string) (float64, error) {
	if w.probeFresh {
		f, err := world.Fork(wd, spec)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		wd = f
	}
	start := time.Now()
	for _, req := range w.probe {
		res, err := wd.Exec(req)
		if err != nil {
			return 0, err
		}
		if err := exited(res); err != nil {
			return 0, err
		}
	}
	return us(rec.probe(name, start)) / float64(len(w.probe)), nil
}

// journal runs the churn session on fresh in-memory-journaled worlds and
// counts the records and group flushes it appends, committing at the
// session boundary as worldd does.
func (p *probes) journal(rec *recorder) error {
	spec := hostSpec(churnBoot)
	tmpl, err := world.Boot(spec)
	if err != nil {
		return err
	}
	defer tmpl.Close()
	var records, flushes uint64
	for i := 0; i < journalReps; i++ {
		wd, err := world.Fork(tmpl, spec)
		if err != nil {
			return err
		}
		jw := wd.Kernel().Journal()
		r0, f0 := jw.Stats()
		start := time.Now()
		res, err := wd.Exec(churnReq)
		if err == nil {
			err = exited(res)
		}
		if err == nil {
			err = jw.Commit()
		}
		rec.probe("journal.session", start)
		r1, f1 := jw.Stats()
		if cerr := wd.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		records += r1 - r0
		flushes += f1 - f0
	}
	p.records = float64(records) / journalReps
	p.flushes = float64(flushes) / journalReps
	return nil
}

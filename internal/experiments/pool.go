package experiments

import (
	"fmt"
	"io"
	"time"

	"interpose/internal/apps"
	"interpose/internal/kernel"
	"interpose/internal/world"
)

// The pooling table ("pool"): what copy-on-write forking and the warm
// pool buy over booting a world per session. Four claims are measured:
//
//   - boot: booting (and closing) one world from the full application
//     image set — the cost the session path pays without a pool,
//     re-measured here so the relations compare two legs of one run;
//   - fork: world.Fork from a live template whose filesystem carries a
//     small bench tree — the COW clone cost, O(#inodes);
//   - fork/large: the same fork against a template with an identical
//     inode count but ~256x the file bytes. If the fork were copying
//     data this row would be two orders of magnitude slower;
//   - acquire-hit: Pool.Acquire with a warm stack — the cost a pooled
//     worldd tenant actually pays on the request path, a mutex-guarded
//     stack pop plus gauge wiring.
//
// The acquire-hit and fork rows are guarded against the baseline, which
// catches a fork that starts copying data or an acquire that grows work;
// the relations pin the cross-row claims (acquire beats boot, fork cost
// independent of file bytes) on any host.
var poolTable = Table{Name: "pool", run: runPool,
	Guards: []string{"acquire-hit", "fork"},
	Relations: []Relation{
		{Left: "acquire-hit", Right: "boot", Factor: 0.4,
			Why: "a pool-hit acquire must be far cheaper than the boot it replaces (the <50µs-vs-~113µs claim)"},
		{Left: "fork/large", Right: "fork", Factor: 2.0,
			Why: "COW fork cost must be O(#inodes): 256x the file bytes may not move the fork time"},
	}}

const (
	// poolBoots is the world count of the boot row.
	poolBoots = 200
	// poolForks is the per-round fork count of the fork rows.
	poolForks = 200
	// poolAcquires is the warm-stack depth and per-round acquire count
	// of the acquire-hit row: a fresh pool pre-warmed to this depth is
	// drained exactly once, so every timed acquire is a hit.
	poolAcquires = 64
	// poolTreeFiles is the bench-tree inode count of both fork
	// templates; only the per-file byte size differs between them.
	poolTreeFiles = 64
	// poolSmallFile / poolLargeFile are the per-file sizes: 256x apart,
	// so a fork that copied data could not stay inside the 2x relation.
	poolSmallFile = 64
	poolLargeFile = 16 * 1024
)

// poolTree returns a Setup hook writing poolTreeFiles files of size
// bytes each under /data.
func poolTree(size int) func(*kernel.Kernel) error {
	return func(k *kernel.Kernel) error {
		if err := k.MkdirAll("/data", 0o755); err != nil {
			return err
		}
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(i)
		}
		for i := 0; i < poolTreeFiles; i++ {
			if err := k.WriteFile(fmt.Sprintf("/data/f%03d", i), buf, 0o644); err != nil {
				return err
			}
		}
		return nil
	}
}

// measureFork boots a template carrying a bench tree of the given
// per-file size and times poolForks member forks (each closed) per
// round, best of runs rounds.
func measureFork(runs, fileSize int) (time.Duration, error) {
	spec := apps.Spec()
	spec.Setup = []func(*kernel.Kernel) error{poolTree(fileSize)}
	tmpl, err := world.Boot(spec)
	if err != nil {
		return 0, fmt.Errorf("template: %w", err)
	}
	defer tmpl.Close()
	member := apps.Spec()
	return bestOf(runs, func() (time.Duration, error) {
		return perOp(poolForks, func() error {
			w, err := world.Fork(tmpl, member)
			if err != nil {
				return fmt.Errorf("fork: %w", err)
			}
			return w.Close()
		})
	})
}

// measureAcquire drains a pre-warmed pool exactly once per round. The
// warm stack starts at poolAcquires members and acquires only pop, so
// every timed acquire is a hit regardless of how far the background
// refiller gets. Every round's pool forks one template.
func measureAcquire(runs int) (time.Duration, error) {
	tmpl, err := world.Boot(apps.Spec())
	if err != nil {
		return 0, fmt.Errorf("template: %w", err)
	}
	defer tmpl.Close()
	return bestOf(runs, func() (time.Duration, error) {
		p, err := world.NewPoolFrom(tmpl, apps.Spec(), poolAcquires)
		if err != nil {
			return 0, fmt.Errorf("pool: %w", err)
		}
		defer p.Close()
		worlds := make([]*world.World, 0, poolAcquires)
		d, err := perOp(poolAcquires, func() error {
			w, err := p.Acquire()
			if err != nil {
				return fmt.Errorf("acquire: %w", err)
			}
			worlds = append(worlds, w)
			return nil
		})
		if err != nil {
			return 0, err
		}
		if s := p.Stats(); s.Misses > 0 {
			return 0, fmt.Errorf("%d misses on a pre-warmed pool", s.Misses)
		}
		for _, w := range worlds {
			if err := w.Close(); err != nil {
				return 0, fmt.Errorf("session close: %w", err)
			}
		}
		return d, p.Close()
	})
}

func runPool(w io.Writer, runs, _ int) ([]BenchEntry, error) {
	boot, err := bootClose(poolBoots)
	if err != nil {
		return nil, err
	}
	fork, err := measureFork(runs, poolSmallFile)
	if err != nil {
		return nil, err
	}
	forkLarge, err := measureFork(runs, poolLargeFile)
	if err != nil {
		return nil, err
	}
	acquire, err := measureAcquire(runs)
	if err != nil {
		return nil, err
	}
	es := []BenchEntry{
		entry("boot", boot),
		entry("fork", fork),
		entry("fork/large", forkLarge),
		entry("acquire-hit", acquire),
	}
	printRows(w, fmt.Sprintf("Warm pools and COW forking (%d-file bench tree, %dB vs %dB files):",
		poolTreeFiles, poolSmallFile, poolLargeFile), es, nil)
	return es, nil
}

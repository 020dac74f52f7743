package experiments

import (
	"fmt"
	"io"
	"time"

	"interpose/internal/apps"
	"interpose/internal/kernel"
	"interpose/internal/world"
)

// The pooling table ("pool"): what copy-on-reach forking and the warm
// pool buy over booting a world per session. Five claims are measured:
//
//   - boot: booting (and closing) one world from the full application
//     image set — the cost the session path pays without a pool,
//     re-measured here so the relations compare two legs of one run;
//   - fork: world.Fork from a live template whose filesystem carries a
//     small bench tree. The template freezes once, on its first fork;
//     every later fork is an empty overlay on that image plus the
//     child's facility set-up, independent of the tree;
//   - fork/large: the same fork against a template with an identical
//     inode count but ~256x the file bytes. If the fork were copying
//     data this row would be two orders of magnitude slower;
//   - fork/wide: the same fork against a template with 8,192 bench
//     files, 128x the small tree's. If the fork were cloning inodes up
//     front this row would be two orders of magnitude slower;
//   - acquire-hit: Pool.Acquire with a warm stack — the cost a pooled
//     worldd tenant actually pays on the request path, a mutex-guarded
//     stack pop plus gauge wiring.
//
// The acquire-hit and fork rows are guarded against the baseline, which
// catches a fork that starts copying or an acquire that grows work; the
// relations pin the cross-row claims (acquire beats boot, fork cost
// independent of file bytes and of inode count) on any host.
var poolTable = Table{Name: "pool", run: runPool,
	Guards: []string{"acquire-hit", "fork"},
	Relations: []Relation{
		{Left: "acquire-hit", Right: "boot", Factor: 0.4,
			Why: "a pool-hit acquire must be far cheaper than the boot it replaces (the <50µs-vs-~113µs claim)"},
		{Left: "fork/large", Right: "fork", Factor: 2.0,
			Why: "fork cost must not depend on file bytes: 256x the bytes may not move the fork time"},
		{Left: "fork/wide", Right: "fork", Factor: 2.0,
			Why: "fork cost must not depend on inode count: 128x the inodes may not move the fork time"},
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
	// poolTreeFiles is the bench-tree file count of the fork and
	// fork/large templates; only the per-file byte size differs between
	// them. poolWideFiles is the fork/wide template's, spread over
	// directories of poolTreeFiles files each.
	poolTreeFiles = 64
	poolWideFiles = 8192
	// poolSmallFile / poolLargeFile are the per-file sizes: 256x apart,
	// so a fork that copied data could not stay inside the 2x relation.
	poolSmallFile = 64
	poolLargeFile = 16 * 1024
)

// poolTree returns a Setup hook writing files files of size bytes each,
// poolTreeFiles to a directory, under /data.
func poolTree(files, size int) func(*kernel.Kernel) error {
	return func(k *kernel.Kernel) error {
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(i)
		}
		for i := 0; i < files; i++ {
			dir := fmt.Sprintf("/data/d%03d", i/poolTreeFiles)
			if i%poolTreeFiles == 0 {
				if err := k.MkdirAll(dir, 0o755); err != nil {
					return err
				}
			}
			if err := k.WriteFile(fmt.Sprintf("%s/f%03d", dir, i%poolTreeFiles), buf, 0o644); err != nil {
				return err
			}
		}
		return nil
	}
}

// measureFork boots a template carrying a bench tree of the given file
// count and per-file size and times poolForks member forks (each closed)
// per round, best of runs rounds.
func measureFork(runs, files, fileSize int) (time.Duration, error) {
	spec := apps.Spec()
	spec.Setup = []func(*kernel.Kernel) error{poolTree(files, fileSize)}
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
	fork, err := measureFork(runs, poolTreeFiles, poolSmallFile)
	if err != nil {
		return nil, err
	}
	forkLarge, err := measureFork(runs, poolTreeFiles, poolLargeFile)
	if err != nil {
		return nil, err
	}
	forkWide, err := measureFork(runs, poolWideFiles, poolSmallFile)
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
		entry("fork/wide", forkWide),
		entry("acquire-hit", acquire),
	}
	printRows(w, fmt.Sprintf("Warm pools and copy-on-reach forking (%d-file bench tree, %dB vs %dB files; wide: %d files):",
		poolTreeFiles, poolSmallFile, poolLargeFile, poolWideFiles), es, nil)
	return es, nil
}

package experiments

import (
	"fmt"
	"io"
	"time"

	"interpose/internal/apps"
	"interpose/internal/kernel"
	"interpose/internal/world"
)

// The forking table ("pool"): what copy-on-reach forking buys over
// booting a world per session. Four claims are measured:
//
//   - boot: booting (and closing) one world from the full application
//     image set — the cost every create would pay without forking,
//     re-measured here so the table reads as one run;
//   - fork: world.Fork from a live template whose filesystem carries a
//     small bench tree. The template freezes once, on its first fork;
//     every later fork is an empty overlay on that image plus the
//     child's facility set-up, independent of the tree;
//   - fork/large: the same fork against a template with an identical
//     inode count but ~256x the file bytes. If the fork were copying
//     data this row would be two orders of magnitude slower;
//   - fork/wide: the same fork against a template with 8,192 bench
//     files, 128x the small tree's. If the fork were cloning inodes up
//     front this row would be two orders of magnitude slower.
//
// The fork row is guarded against the baseline, which catches a fork
// that starts copying; the relations pin fork cost independent of file
// bytes and of inode count on any host. The table keeps its old name so
// its rows stay comparable across BENCH files.
var poolTable = Table{Name: "pool", run: runPool,
	Guards: []string{"fork"},
	Relations: []Relation{
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
	es := []BenchEntry{
		entry("boot", boot),
		entry("fork", fork),
		entry("fork/large", forkLarge),
		entry("fork/wide", forkWide),
	}
	printRows(w, fmt.Sprintf("Copy-on-reach forking (%d-file bench tree, %dB vs %dB files; wide: %d files):",
		poolTreeFiles, poolSmallFile, poolLargeFile, poolWideFiles), es, nil)
	return es, nil
}

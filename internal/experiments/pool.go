package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"interpose/internal/apps"
	"interpose/internal/kernel"
	"interpose/internal/world"
)

// The pooling table ("pool"): what copy-on-write forking and the warm
// pool buy over booting a world per session. Four claims are measured:
//
//   - boot: booting one world from the full application image set — the
//     cost the session path pays without a pool (the worldd table's
//     boot row, re-measured here so the relations below compare two
//     legs of the same run);
//   - fork: world.Fork from a live template whose filesystem carries a
//     small bench tree — the COW clone cost, O(#inodes);
//   - fork/large: the same fork against a template with an identical
//     inode count but ~256x the file bytes. If the fork were copying
//     data this row would be two orders of magnitude slower; the
//     relation gate holds it within 2x of the small fork;
//   - acquire-hit: Pool.Acquire with a warm stack — the cost a pooled
//     worldd tenant actually pays on the request path, a mutex-guarded
//     stack pop plus gauge wiring.
//
// The acquire-hit and fork rows are guarded absolutely against
// BENCH_BASELINE.json; the byte-size independence and the
// acquire-beats-boot claims are relation-guarded (baseline.go) so they
// hold on any host.

// PoolRow is one measured row of the pool table, in nanoseconds.
type PoolRow struct {
	Name  string
	Value int64
}

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
// per-file size and times poolForks member forks per round, best of
// runs rounds.
func measureFork(runs, fileSize int) (time.Duration, error) {
	spec := apps.Spec()
	spec.Setup = []func(*kernel.Kernel) error{poolTree(fileSize)}
	tmpl, err := world.Boot(spec)
	if err != nil {
		return 0, fmt.Errorf("pool table: template: %w", err)
	}
	defer tmpl.Close()

	member := apps.Spec()
	round := func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < poolForks; i++ {
			w, err := world.Fork(tmpl, member)
			if err != nil {
				return 0, fmt.Errorf("pool table: fork: %w", err)
			}
			if err := w.Close(); err != nil {
				return 0, fmt.Errorf("pool table: fork close: %w", err)
			}
		}
		return time.Since(start), nil
	}
	if _, err := round(); err != nil { // warm-up
		return 0, err
	}
	var best time.Duration
	for r := 0; r < runs; r++ {
		runtime.GC()
		d, err := round()
		if err != nil {
			return 0, err
		}
		if r == 0 || d < best {
			best = d
		}
	}
	return best / poolForks, nil
}

// RunPoolTable measures the pool table.
func RunPoolTable(runs int) ([]PoolRow, error) {
	// Boot: the no-pool session-path cost, for the relation gate.
	start := time.Now()
	for i := 0; i < poolBoots; i++ {
		w, err := world.Boot(apps.Spec())
		if err != nil {
			return nil, fmt.Errorf("pool table: boot: %w", err)
		}
		if err := w.Close(); err != nil {
			return nil, fmt.Errorf("pool table: boot close: %w", err)
		}
	}
	bootPer := time.Since(start) / poolBoots

	forkPer, err := measureFork(runs, poolSmallFile)
	if err != nil {
		return nil, err
	}
	forkLargePer, err := measureFork(runs, poolLargeFile)
	if err != nil {
		return nil, err
	}

	// Acquire-hit: drain a pre-warmed pool exactly once per round. The
	// warm stack starts at poolAcquires members and acquires only pop,
	// so every timed acquire is a hit regardless of how far the
	// background refiller gets. Every round's pool forks one template.
	tmpl, err := world.Boot(apps.Spec())
	if err != nil {
		return nil, fmt.Errorf("pool table: template: %w", err)
	}
	defer tmpl.Close()
	acquireRound := func() (time.Duration, error) {
		p, err := world.NewPoolFrom(tmpl, apps.Spec(), poolAcquires)
		if err != nil {
			return 0, fmt.Errorf("pool table: pool: %w", err)
		}
		worlds := make([]*world.World, 0, poolAcquires)
		start := time.Now()
		for i := 0; i < poolAcquires; i++ {
			w, err := p.Acquire()
			if err != nil {
				p.Close()
				return 0, fmt.Errorf("pool table: acquire: %w", err)
			}
			worlds = append(worlds, w)
		}
		d := time.Since(start)
		if s := p.Stats(); s.Misses > 0 {
			p.Close()
			return 0, fmt.Errorf("pool table: %d misses on a pre-warmed pool", s.Misses)
		}
		for _, w := range worlds {
			if err := w.Close(); err != nil {
				p.Close()
				return 0, fmt.Errorf("pool table: session close: %w", err)
			}
		}
		if err := p.Close(); err != nil {
			return 0, fmt.Errorf("pool table: pool close: %w", err)
		}
		return d, nil
	}
	if _, err := acquireRound(); err != nil { // warm-up
		return nil, err
	}
	var acquireBest time.Duration
	for r := 0; r < runs; r++ {
		runtime.GC()
		d, err := acquireRound()
		if err != nil {
			return nil, err
		}
		if r == 0 || d < acquireBest {
			acquireBest = d
		}
	}
	acquirePer := acquireBest / poolAcquires

	return []PoolRow{
		{Name: "boot", Value: bootPer.Nanoseconds()},
		{Name: "fork", Value: forkPer.Nanoseconds()},
		{Name: "fork/large", Value: forkLargePer.Nanoseconds()},
		{Name: "acquire-hit", Value: acquirePer.Nanoseconds()},
	}, nil
}

// PrintPool renders the pool table.
func PrintPool(w io.Writer, rows []PoolRow) {
	fmt.Fprintf(w, "Warm pools and COW forking (%d-file bench tree, %dB vs %dB files):\n",
		poolTreeFiles, poolSmallFile, poolLargeFile)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %10dns\n", r.Name, r.Value)
	}
	fmt.Fprintln(w)
}

// PoolEntries converts the rows for the bench JSON / baseline check.
func PoolEntries(rows []PoolRow) []BenchEntry {
	var es []BenchEntry
	for _, r := range rows {
		es = append(es, BenchEntry{Table: "pool", Row: r.Name, NsPerOp: r.Value})
	}
	return es
}

package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"interpose/internal/apps"
	"interpose/internal/image"
	"interpose/internal/journal"
	"interpose/internal/kernel"
	"interpose/internal/world"
)

// The crash-consistency cost table ("crash"): what the write-ahead
// journal costs on the write path, and what a world checkpoint buys over
// a full boot. Three relations gate it: the journal-on make workload
// within 15% of journal-off; restoring a checkpoint cheaper than booting
// the same world from scratch; and a second restore of one checkpoint —
// a world.Fork of the template world.Load decoded it into once — at most
// a quarter of a first restore, which decodes the whole stream.
//
// The write4k rows are the raw per-write floor: an uninterposed 4 KB
// in-memory overwrite is a few hundred nanoseconds of memmove, so the
// journal's extra passes over the data (frame encode, CRC-32, store
// append) necessarily multiply it. The gated overhead claim is the
// workload-level make rows, where writes ride along real computation the
// way they do in any deployment that would turn the journal on. The
// write4k/on row is guarded against the baseline all the same: 2,000
// journaled 4 KB writes grow an in-memory journal to 8 MB, so a store
// that copied its bytes as it grew would show there first.
var crashTable = Table{Name: "crash", run: runCrash, Guards: []string{"write4k/on"}, Relations: []Relation{
	{Left: "make/on", Right: "make/off", Factor: 1.15,
		Why: "journal-on write-path overhead must stay within 15% on the write-heavy make workload"},
	{Left: "restore", Right: "boot", Factor: 1.0,
		Why: "restoring a checkpoint must beat a full boot"},
	{Left: "restore/again", Right: "restore", Factor: 0.25,
		Why: "a checkpoint is decoded once: a further restore of it is one fork"},
}}

// write4kOps is the per-measurement repetition count of the write rows.
const write4kOps = 2000

// crashPrograms is the make-workload size of the make/off and make/on rows.
const crashPrograms = 4

// crashForks is the fork count each restore/again measurement averages:
// one fork is a few µs, near the timer's and a GC assist's noise.
const crashForks = 50

// crashWorld boots the world the checkpoint rows snapshot: a full
// application world carrying the mk workload's source tree, so "boot"
// means the work a crashed deployment would redo without a checkpoint.
// It is a Setup hook away from the standard benchmark spec.
func crashWorld() (*kernel.Kernel, error) {
	s := WorldSpec()
	s.Setup = append(s.Setup, func(k *kernel.Kernel) error {
		return apps.GenMakeTree(k, "/src", 4)
	})
	w, err := world.Boot(s)
	if err != nil {
		return nil, err
	}
	return w.Kernel(), nil
}

// withJournal attaches an in-memory journal to k when row is a
// journal-on row.
func withJournal(k *kernel.Kernel, row string) {
	if strings.HasSuffix(row, "/on") {
		k.SetJournal(journal.NewWriter(journal.NewMemStore(0), 0))
	}
}

func runCrash(w io.Writer, runs, _ int) ([]BenchEntry, error) {
	// The per-write rows, each measurement in a fresh world.
	writes, err := interleavedMean(runs, []string{"write4k/off", "write4k/on"}, func(row string) (time.Duration, error) {
		k, err := World()
		if err != nil {
			return 0, err
		}
		withJournal(k, row)
		d, err := RunBench(k, nil, "write4k", write4kOps)
		return d / write4kOps, err
	})
	if err != nil {
		return nil, err
	}

	// The workload rows: the make build (compiler, assembler, linker all
	// writing through the VFS) with and without a journal attached.
	makeRows := []string{"make/off", "make/on"}
	makeEnvs := make(map[string]*kernel.Kernel, len(makeRows))
	for _, row := range makeRows {
		k, err := World()
		if err != nil {
			return nil, err
		}
		if err := SetupMake(k, crashPrograms); err != nil {
			return nil, err
		}
		withJournal(k, row)
		makeEnvs[row] = k
	}
	makes, err := interleavedMean(runs, makeRows, func(row string) (time.Duration, error) {
		k := makeEnvs[row]
		if err := CleanMake(k, crashPrograms); err != nil {
			return 0, err
		}
		return RunMake(k, nil)
	})
	if err != nil {
		return nil, err
	}

	// One canonical world provides the checkpoint image; the snapshot is
	// taken once and restored repeatedly.
	k, err := crashWorld()
	if err != nil {
		return nil, err
	}
	var snap bytes.Buffer
	if err := k.Checkpoint(&snap); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	images := image.NewRegistry()
	apps.Register(images)
	tmpl, err := world.Load("crash", apps.Register, bytes.NewReader(snap.Bytes()))
	if err != nil {
		return nil, err
	}
	defer tmpl.Close()
	ops := map[string]func() error{
		"checkpoint": func() error { return k.Checkpoint(io.Discard) },
		"restore": func() error {
			_, err := kernel.Restore(images, bytes.NewReader(snap.Bytes()))
			return err
		},
		"restore/again": func() error {
			w, err := world.Fork(tmpl, world.Spec{Name: "restore/again"})
			if err != nil {
				return err
			}
			return w.Close()
		},
		"boot": func() error {
			_, err := crashWorld()
			return err
		},
	}
	// Each op gets its own loop rather than one interleaved loop, so
	// that every row keeps its working set warm across its rounds.
	es := append(writes, makes...)
	for _, row := range []string{"checkpoint", "restore", "restore/again", "boot"} {
		r, err := interleavedMean(runs, []string{row}, func(string) (time.Duration, error) {
			n := 1
			if row == "restore/again" {
				n = crashForks
			}
			return perOp(n, ops[row])
		})
		if err != nil {
			return nil, err
		}
		es = append(es, r...)
	}
	printRows(w, "Crash consistency cost (journal + checkpoint/restore, per op):", es, nil)
	return es, nil
}

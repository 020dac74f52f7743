package kernel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"interpose/internal/image"
	"interpose/internal/journal"
	"interpose/internal/sys"
	"interpose/internal/vfs"
)

// World checkpoint/restore: a checkpoint freezes a quiesced world — the
// whole filesystem (program binaries included, since executables are
// ordinary files holding registered image headers) plus the list of
// image names the world depends on — into one self-validating stream.
// Restore verifies every required image is registered and builds a
// kernel shell around a fork of the reconstructed filesystem, the same
// shell Fork builds around a live world's (fork.go). Composed with the
// write-ahead journal this is crash recovery: restore the last
// checkpoint (or boot fresh), then ReplayJournal the suffix the journal
// kept.

// ckptMagic heads every checkpoint stream.
const ckptMagic = "INTERPOSE-CKPT1\n"

// Checkpoint writes the world's durable state to w. The world must be
// quiesced: no running processes (their address spaces and descriptor
// tables are transient state and are not captured). Call Journal's
// Commit first if a journal is attached so the checkpoint and journal
// agree on the sequence watermark.
func (k *Kernel) Checkpoint(w io.Writer) error {
	names := k.images.Names()
	var hdr []byte
	hdr = append(hdr, ckptMagic...)
	hdr = binary.AppendUvarint(hdr, uint64(len(names)))
	for _, n := range names {
		hdr = binary.AppendUvarint(hdr, uint64(len(n)))
		hdr = append(hdr, n...)
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	return k.fs.WriteSnapshot(w)
}

// Restore reconstructs a checkpointed world against the given image
// registry, which must provide every image name the checkpoint recorded.
// It reads the stream once and forks the decoded filesystem the way Fork
// forks a live world's, so its device nodes bind to the new kernel's
// drivers there and nowhere else.
func Restore(images *image.Registry, r io.Reader) (*Kernel, error) {
	var data bytes.Buffer
	if _, err := io.Copy(&data, r); err != nil {
		return nil, fmt.Errorf("kernel: checkpoint: %w", err)
	}
	p, ok := bytes.CutPrefix(data.Bytes(), []byte(ckptMagic))
	if !ok {
		return nil, fmt.Errorf("kernel: not a checkpoint (bad magic)")
	}
	n, w := binary.Uvarint(p)
	for ; w > 0 && n > 0; n-- {
		p = p[w:]
		var ln uint64
		if ln, w = binary.Uvarint(p); w <= 0 || ln > uint64(len(p)-w) {
			break
		}
		name := string(p[w : w+int(ln)])
		if _, ok := images.Lookup(name); !ok {
			return nil, fmt.Errorf("kernel: checkpoint needs unregistered image %q", name)
		}
		w += int(ln)
	}
	if w <= 0 || n > 0 {
		return nil, fmt.Errorf("kernel: checkpoint image list truncated")
	}
	fs, err := vfs.ReadSnapshot(bytes.NewReader(p[w:]))
	if err != nil {
		return nil, err
	}
	return forkShell(images, fs)
}

// ReplayJournal scans raw journal bytes and replays them onto this
// world's filesystem, rolling it forward to the last durable mutation.
// Records at or below the filesystem's applied watermark self-skip, so
// replaying a full journal over a mid-journal checkpoint is exact. A
// torn tail is normal after a crash — replay stops cleanly before it —
// and is returned for reporting, not as a failure.
func (k *Kernel) ReplayJournal(data []byte) (applied, skipped int, torn *journal.Torn, err error) {
	recs, torn := journal.Scan(data)
	rp := vfs.NewReplayer(k.fs, k.lookupDevice)
	if err := rp.ReplayAll(recs); err != nil {
		return 0, 0, torn, err
	}
	applied, skipped = rp.Stats()
	return applied, skipped, torn, nil
}

// SetJournal attaches a write-ahead journal to the world's filesystem
// (nil detaches). Attach on a quiesced world; after recovery, StartAt
// the filesystem's JournalSeq()+1 first.
func (k *Kernel) SetJournal(w *journal.Writer) { k.fs.SetJournal(w) }

// Journal returns the attached journal writer, or nil.
func (k *Kernel) Journal() *journal.Writer { return k.fs.Journal() }

// Injector returns the installed fault injector, or nil.
func (k *Kernel) Injector() Injector {
	if b := k.inj.Load(); b != nil {
		return b.inj
	}
	return nil
}

// SetCrashHook installs (or removes, with nil) a function invoked at
// the top of every Crash, before the process-table lock is taken. It
// gives a machine supervisor a push-path death signal; the hook runs on
// the crashing goroutine and must not block or call back into Crash's
// caller synchronously (re-entering Crash itself is safe — the hook
// fires again, so it must be idempotent).
func (k *Kernel) SetCrashHook(fn func()) {
	if fn == nil {
		k.crashHook.Store(nil)
		return
	}
	k.crashHook.Store(&fn)
}

// Crash kills the world: every live process gets an unmaskable,
// uncatchable SIGKILL, exactly as if the machine lost power with the
// filesystem's journal frozen at its current prefix. Callers freeze the
// journal store first (the injected-crash path does), then WaitExit the
// top-level process and recover.
func (k *Kernel) Crash() {
	if fn := k.crashHook.Load(); fn != nil {
		(*fn)()
	}
	k.pmu.Lock()
	defer k.pmu.Unlock()
	for _, p := range k.procs {
		k.postSignalPLocked(p, sys.SIGKILL)
	}
}

package vfs

import (
	"time"

	"interpose/internal/journal"
	"interpose/internal/sys"
)

// Journal replay: a Replayer applies logical redo records (journal.go) to
// a filesystem during crash recovery. Replay is exactly-once and
// idempotent through two independent mechanisms:
//
//   - The applied-sequence watermark (FS.JournalSeq, persisted in
//     snapshots): records at or below it are skipped outright, so a full
//     journal replays correctly onto a fresh world, onto any checkpoint
//     taken mid-journal, or twice in a row, landing on the same state.
//   - Per-record self-recognition: every record carries absolute values
//     and the inode numbers it expects, so even past the watermark a
//     record whose preconditions are gone (its directory or inode no
//     longer exists) skips instead of corrupting.
//
// Replay runs on a quiesced filesystem with NO journal attached: attach
// (and StartAt) only after recovery, or every replayed mutation would be
// re-journaled.

// Replayer applies redo records to fs, tracking inodes by number.
type Replayer struct {
	fs      *FS
	byIno   map[uint32]*Inode
	resolve func(rdev uint32) (Device, bool)

	applied int
	skipped int
}

// NewReplayer indexes fs's reachable inodes by number. resolve maps
// device rdevs to drivers for replayed device-node creates (nil is fine
// when the journal creates none). On an overlay the index reads through
// to the image; a record clones only the inodes it reaches (inode).
func NewReplayer(fs *FS, resolve func(rdev uint32) (Device, bool)) *Replayer {
	rp := &Replayer{fs: fs, byIno: map[uint32]*Inode{}, resolve: resolve}
	fs.walkTree(func(_ string, ip *Inode) { rp.byIno[ip.Ino] = ip })
	return rp
}

// inode returns the filesystem's own inode numbered ino (nil if none).
func (rp *Replayer) inode(ino uint32) *Inode {
	ip := rp.fs.reach(rp.byIno[ino])
	if ip != nil {
		rp.byIno[ino] = ip
	}
	return ip
}

// Stats reports how many records were applied and how many skipped as
// already-present.
func (rp *Replayer) Stats() (applied, skipped int) { return rp.applied, rp.skipped }

func (rp *Replayer) skip() error    { rp.skipped++; return nil }
func (rp *Replayer) did() error     { rp.applied++; return nil }
func (rp *Replayer) now() time.Time { return rp.fs.now() }

// Apply replays one record. Unknown inode numbers and already-applied
// effects are skipped, never errors: the journal may legitimately predate
// the snapshot being recovered onto.
func (rp *Replayer) Apply(r *journal.Record) error {
	if r.Seq != 0 && r.Seq <= rp.fs.jnlSeq.Load() {
		return rp.skip() // at or below the world's applied watermark
	}
	rp.fs.changed.Store(true)
	defer rp.fs.bumpSeq(r.Seq)
	switch r.Op {
	case journal.OpCreate:
		return rp.create(r)
	case journal.OpLink:
		return rp.link(r)
	case journal.OpUnlink:
		return rp.unlink(r)
	case journal.OpRmdir:
		return rp.rmdir(r)
	case journal.OpRename:
		return rp.rename(r)
	case journal.OpWrite:
		return rp.write(r)
	case journal.OpTruncate:
		return rp.truncate(r)
	case journal.OpChmod:
		return rp.chmod(r)
	case journal.OpChown:
		return rp.chown(r)
	case journal.OpUtimes:
		return rp.utimes(r)
	}
	return rp.skip() // unknown op from a future format: ignore
}

// ReplayAll applies a scanned record sequence in order.
func (rp *Replayer) ReplayAll(recs []*journal.Record) error {
	for _, r := range recs {
		if err := rp.Apply(r); err != nil {
			return err
		}
	}
	return nil
}

func (rp *Replayer) create(r *journal.Record) error {
	dir := rp.inode(r.Dir)
	if dir == nil || !dir.IsDir() {
		return rp.skip()
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	if dir.names().m[r.Name] != nil || rp.byIno[r.Ino] != nil {
		// The name is taken (this create already applied, or newer truth
		// sits there) or the inode exists elsewhere (created then renamed
		// away by later records).
		return rp.skip()
	}
	now := rp.now()
	ip := &Inode{
		fs:    rp.fs,
		layer: rp.fs.layer.Load(),
		Ino:   r.Ino,
		typ:   r.Mode & sys.S_IFMT,
		Mode:  r.Mode,
		Nlink: 1,
		UID:   r.UID,
		GID:   r.GID,
		Rdev:  r.Rdev,
		Atime: now, Mtime: now, Ctime: now,
	}
	switch ip.typ {
	case sys.S_IFLNK:
		ip.link = string(r.Data)
	case sys.S_IFDIR:
		ip.tab.Store(emptyDir)
		ip.Nlink = 2
		ip.setParent(dir)
		dir.Nlink++
	case sys.S_IFCHR:
		if rp.resolve != nil {
			if dev, ok := rp.resolve(r.Rdev); ok {
				ip.dev = dev
				rp.fs.bind(r.Rdev, dev)
			}
		}
	}
	ip.publishAttrs()
	rp.fs.ninodes.Add(1)
	// Keep the allocator ahead of every replayed number.
	if rp.fs.nextIno.Load() <= r.Ino {
		rp.fs.nextIno.Store(r.Ino + 1)
	}
	dir.insertLocked(r.Name, ip)
	rp.byIno[r.Ino] = ip
	return rp.did()
}

func (rp *Replayer) link(r *journal.Record) error {
	dir, target := rp.inode(r.Dir), rp.inode(r.Ino)
	if dir == nil || !dir.IsDir() || target == nil {
		return rp.skip()
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	if dir.names().m[r.Name] != nil {
		return rp.skip()
	}
	target.mu.Lock()
	target.Nlink++
	target.Ctime = rp.now()
	target.bump()
	target.mu.Unlock()
	dir.insertLocked(r.Name, target)
	return rp.did()
}

func (rp *Replayer) unlink(r *journal.Record) error {
	dir := rp.inode(r.Dir)
	if dir == nil || !dir.IsDir() {
		return rp.skip()
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	victim := dir.child(r.Name)
	if victim == nil || victim.Ino != r.Ino {
		return rp.skip() // already applied, or the name holds newer truth
	}
	dir.removeLocked(r.Name)
	rp.dropRef(victim)
	return rp.did()
}

func (rp *Replayer) rmdir(r *journal.Record) error {
	dir := rp.inode(r.Dir)
	if dir == nil || !dir.IsDir() {
		return rp.skip()
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	victim := dir.child(r.Name)
	if victim == nil || victim.Ino != r.Ino || !victim.IsDir() {
		return rp.skip()
	}
	victim.mu.Lock()
	victim.Nlink = 0
	victim.setParent(nil)
	victim.bump()
	victim.mu.Unlock()
	dir.removeLocked(r.Name)
	dir.Nlink--
	rp.fs.ninodes.Add(-1)
	delete(rp.byIno, victim.Ino)
	return rp.did()
}

func (rp *Replayer) rename(r *journal.Record) error {
	oldDir, newDir := rp.inode(r.Dir), rp.inode(r.Dir2)
	if oldDir == nil || !oldDir.IsDir() || newDir == nil || !newDir.IsDir() {
		return rp.skip()
	}
	rp.fs.renameMu.Lock()
	defer rp.fs.renameMu.Unlock()
	first, second := oldDir, newDir
	if oldDir != newDir {
		first, second = rp.fs.orderParents(oldDir, newDir)
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	if second != first {
		second.mu.Lock()
		defer second.mu.Unlock()
	}
	src := oldDir.child(r.Name)
	if src == nil || src.Ino != r.Ino {
		return rp.skip() // already moved (or the name was reused later)
	}
	if src.IsDir() && rp.fs.contains(src, newDir) {
		return rp.skip() // a live rename refuses this; only a damaged journal holds it
	}
	if dst := newDir.child(r.Name2); dst != nil {
		if dst == src || dst.IsDir() && rp.fs.contains(dst, oldDir) {
			return rp.skip()
		}
		// Replay the replacement half first.
		if dst.IsDir() {
			dst.mu.Lock()
			dst.Nlink = 0
			dst.setParent(nil)
			dst.bump()
			dst.mu.Unlock()
			newDir.Nlink--
			rp.fs.ninodes.Add(-1)
			delete(rp.byIno, dst.Ino)
		} else {
			rp.dropRef(dst)
		}
	}
	moveLocked(oldDir, r.Name, newDir, r.Name2, src)
	if src.IsDir() && oldDir != newDir {
		oldDir.Nlink--
		newDir.Nlink++
	}
	src.mu.Lock()
	if src.IsDir() {
		src.setParent(newDir)
	}
	src.Ctime = rp.now()
	src.bump()
	src.mu.Unlock()
	return rp.did()
}

// dropRef is drop (fs.go) against the replayer's index. Caller holds the
// parent directory lock.
func (rp *Replayer) dropRef(ip *Inode) {
	ip.mu.Lock()
	ip.Nlink--
	ip.Ctime = rp.now()
	ip.bump()
	last := ip.Nlink == 0
	ip.mu.Unlock()
	if last {
		rp.fs.ninodes.Add(-1)
		delete(rp.byIno, ip.Ino)
	}
}

func (rp *Replayer) write(r *journal.Record) error {
	ip := rp.inode(r.Ino)
	if ip == nil || ip.typ != sys.S_IFREG {
		return rp.skip()
	}
	ip.mu.Lock()
	defer ip.mu.Unlock()
	// Replay onto a forked world must not scribble on an image's array
	// (fork.go); writeLocked copies out first.
	ip.writeLocked(r.Data, r.Off)
	now := rp.now()
	ip.Mtime, ip.Ctime = now, now
	ip.bump()
	return rp.did()
}

func (rp *Replayer) truncate(r *journal.Record) error {
	ip := rp.inode(r.Ino)
	if ip == nil || ip.typ != sys.S_IFREG {
		return rp.skip()
	}
	ip.mu.Lock()
	defer ip.mu.Unlock()
	ip.truncateLocked(r.Size)
	now := rp.now()
	ip.Mtime, ip.Ctime = now, now
	ip.bump()
	return rp.did()
}

func (rp *Replayer) chmod(r *journal.Record) error {
	ip := rp.inode(r.Ino)
	if ip == nil {
		return rp.skip()
	}
	ip.mu.Lock()
	defer ip.mu.Unlock()
	ip.Mode = ip.typ | r.Mode&0o7777
	ip.Ctime = rp.now()
	ip.bump()
	ip.publishAttrs()
	return rp.did()
}

func (rp *Replayer) chown(r *journal.Record) error {
	ip := rp.inode(r.Ino)
	if ip == nil {
		return rp.skip()
	}
	ip.mu.Lock()
	defer ip.mu.Unlock()
	ip.UID, ip.GID = r.UID, r.GID
	ip.Mode = ip.typ | r.Mode&0o7777
	ip.Ctime = rp.now()
	ip.bump()
	ip.publishAttrs()
	return rp.did()
}

func (rp *Replayer) utimes(r *journal.Record) error {
	ip := rp.inode(r.Ino)
	if ip == nil {
		return rp.skip()
	}
	ip.mu.Lock()
	defer ip.mu.Unlock()
	ip.Atime, ip.Mtime = time.Unix(0, r.Off), time.Unix(0, r.Size)
	ip.Ctime = rp.now()
	ip.bump()
	return rp.did()
}

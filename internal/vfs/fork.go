package vfs

import (
	"fmt"
	"sync/atomic"
	"time"

	"interpose/internal/sys"
)

// Copy-on-write forking: Fork clones a filesystem in O(#inodes) pointer
// work, not O(bytes). Regular-file data arrays are not copied — parent
// and child share each array behind a reference count (Inode.dataRefs)
// and whichever side mutates a file first copies just that inode's bytes
// out (Inode.unshareData). This generalizes the atomic-pointer COW
// discipline of the dentry/attribute caches (cache.go): immutable value
// published behind an atomic pointer, replaced wholesale on write.
//
// What is shared and what is copied:
//
//   - file data arrays: shared behind dataRefs until either side's first
//     in-place write or growing write/truncate (shrink is a reslice and
//     keeps sharing — the underlying bytes never change);
//   - attribute snapshots (attrs): the *attrSnap pointer is shared; it is
//     an immutable value that chmod/chown replace wholesale, so sharing
//     is free and always safe;
//   - inode structs, directory entry tables, order slices: copied (they
//     are mutable under each side's own locks);
//   - dentry snapshots (dmap) and the pathname cache: NOT shared — they
//     map names to the parent's *Inode pointers, which would resolve into
//     the wrong world. The child starts cold and refills lazily;
//   - stat snapshots (statc): dropped; recomputed on first stat.
//
// Lock ordering: Fork takes each inode's read lock one at a time, never
// two at once, so it composes with every mutation path (which hold at
// most parent dir + one child, exclusively). A writer cannot observe or
// break a share mid-install because installing the refcount happens
// under the inode's read lock while all data mutations hold the write
// lock. Consistency ACROSS inodes is the caller's responsibility, as
// with WriteSnapshot: fork a quiesced world.
//
// Journaling: the child carries the parent's applied-sequence watermark
// (jnlSeq) but no journal writer. The caller seals the parent's journal
// epoch (commit) before forking; replaying the parent's journal onto the
// child then applies zero records — everything is at or below the
// watermark. Replay paths unshare before mutating (replay.go), so even a
// divergent replay cannot scribble on a shared array.

// Fork clones the filesystem copy-on-write. clock supplies the child's
// timestamps (the parent's clock when nil); resolve maps a device
// inode's rdev to the child world's driver vector — device inodes must
// not keep the parent's drivers, or guest I/O would cross worlds — and
// may be nil only when the tree holds no device nodes. The parent must
// be quiesced (no running mutators) for cross-inode consistency.
func (fs *FS) Fork(clock func() time.Time, resolve func(rdev uint32) (Device, bool)) (*FS, error) {
	if clock == nil {
		clock = fs.clock
	}
	child := &FS{dev: fs.dev, clock: clock}

	// Pass one: clone every reachable inode (hard links visit once).
	// forkDir remembers each directory's listing so pass two can wire
	// entries and parents to the clones.
	type forkDir struct {
		clone  *Inode
		parent *Inode // original
		names  []string
		kids   []*Inode // originals
	}
	clones := map[*Inode]*Inode{}
	var dirs []forkDir
	var walkErr error
	fs.walkTree(func(path string, ip *Inode) {
		if walkErr != nil {
			return
		}
		ip.mu.RLock()
		c := &Inode{
			fs:    child,
			Ino:   ip.Ino,
			typ:   ip.typ,
			Mode:  ip.Mode,
			Nlink: ip.Nlink,
			UID:   ip.UID,
			GID:   ip.GID,
			Rdev:  ip.Rdev,
			Atime: ip.Atime,
			Mtime: ip.Mtime,
			Ctime: ip.Ctime,
			link:  ip.link,
		}
		switch ip.typ {
		case sys.S_IFREG:
			// An empty file shares nothing: handing the child a
			// zero-length slice of ip's array would give both sides its
			// spare capacity with no dataRefs to stop growLocked
			// extending into it in place.
			if len(ip.data) > 0 {
				c.data = ip.data
				refs := ip.dataRefs.Load()
				if refs == nil {
					nr := &atomic.Int64{}
					nr.Store(1)
					// CAS arbitrates concurrent forks; a mutator cannot
					// intervene (it needs the write lock we read-hold).
					if !ip.dataRefs.CompareAndSwap(nil, nr) {
						refs = ip.dataRefs.Load()
					} else {
						refs = nr
					}
				}
				refs.Add(1)
				c.dataRefs.Store(refs)
			}
		case sys.S_IFDIR:
			c.entries = make(map[string]*Inode, len(ip.entries))
			pp := ip.parentPtr()
			if pp == nil {
				pp = ip
			}
			dirs = append(dirs, forkDir{
				clone:  c,
				parent: pp,
				names:  append([]string(nil), ip.order...),
				kids: func() []*Inode {
					ks := make([]*Inode, len(ip.order))
					for i, n := range ip.order {
						ks[i] = ip.entries[n]
					}
					return ks
				}(),
			})
		case sys.S_IFCHR:
			if resolve != nil {
				if dev, ok := resolve(ip.Rdev); ok {
					c.dev = dev
				}
			}
			if c.dev == nil {
				walkErr = fmt.Errorf("vfs: fork: device %d:%d (%s) has no driver in the child",
					ip.Rdev>>8, ip.Rdev&0xff, path)
			}
		}
		// Share the immutable attribute snapshot; chmod/chown republish a
		// fresh one, never mutate it in place.
		c.attrs.Store(ip.attrs.Load())
		ip.mu.RUnlock()
		if c.attrs.Load() == nil {
			c.publishAttrs()
		}
		clones[ip] = c
	})
	if walkErr != nil {
		return nil, walkErr
	}

	// Pass two: wire directory entries and parent pointers to the clones.
	for _, d := range dirs {
		for i, name := range d.names {
			kid := clones[d.kids[i]]
			if kid == nil {
				continue // raced with a concurrent remove; quiesced callers never see this
			}
			d.clone.entries[name] = kid
			d.clone.order = append(d.clone.order, name)
		}
		d.clone.setParent(clones[d.parent])
	}

	child.root = clones[fs.root]
	child.nextIno.Store(fs.nextIno.Load())
	child.ninodes.Store(int64(len(clones)))
	child.jnlSeq.Store(fs.jnlSeq.Load())
	return child, nil
}

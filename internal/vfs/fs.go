package vfs

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"interpose/internal/journal"
	"interpose/internal/sys"
)

// MaxSymlinks is the symbolic-link expansion limit during resolution.
const MaxSymlinks = 8

// FS is one in-memory filesystem instance.
//
// Locking: there is no filesystem-wide lock. Each inode carries its own
// read-write mutex; path resolution takes none of them (resolve), and
// inodes are never freed, so a pointer the walk returns is always safe
// to lock and re-check. Mutations lock the parent directory, then at
// most one child inode nested inside it. Rename, the only operation that
// must hold two directories at once, additionally serializes against
// other renames with renameMu and locks its parents ancestor-first (or
// in inode-number order when unrelated), which keeps it compatible with
// the parent-before-child order everyone else uses.
type FS struct {
	dev     uint32                // immutable
	root    atomic.Pointer[Inode] // replaced only when a freeze moves fs to a new layer
	nextIno atomic.Uint32
	ninodes atomic.Int64
	clock   func() time.Time // immutable

	// renameMu serializes renames against each other. With it held, the
	// directory topology can only change by mkdir/rmdir of leaves, so a
	// rename can validate ancestry and then lock its two parents in a
	// deterministic order without deadlocking another rename.
	renameMu sync.Mutex

	// cstats counts the walk's components and the stat snapshot's hits.
	cstats cacheCounters

	// jnl, when non-nil, receives a write-ahead redo record for every
	// mutation (journal.go). While nil it costs one atomic pointer load
	// per mutation. jnlSeq is the highest journal sequence number applied
	// to this world — advanced by jlog on the live world and by replay
	// during recovery, persisted in snapshots — and is what makes replay
	// exactly-once: records at or below it are skipped.
	jnl    atomic.Pointer[journal.Writer]
	jnlSeq atomic.Uint64

	// Copy-on-reach overlay state (fork.go). layer is bumped by each
	// freeze, which turns every inode made at an older layer into part of
	// an image; changed records a mutation since the last freeze. ovMu
	// guards img, sparse and drivers and serializes the making of clones;
	// the walk reads the dense clone index without it.
	layer   atomic.Uint32
	changed atomic.Bool
	ovMu    sync.Mutex
	img     *image                     // the image fs is an overlay on; nil until fs forks or is forked
	clones  atomic.Pointer[cloneIndex] // image inode number → fs's clone of it
	sparse  map[uint32]*Inode          // clones numbered past the dense index (fork.go)
	drivers []binding                  // rdev → this filesystem's driver, for device clones
}

// New creates an empty filesystem whose timestamps come from clock
// (time.Now when nil). The root directory is owned by root with mode 0755.
func New(clock func() time.Time) *FS {
	if clock == nil {
		clock = time.Now
	}
	fs := &FS{dev: 1, clock: clock}
	fs.nextIno.Store(2)
	root := fs.newInode(sys.S_IFDIR|0o755, Cred{UID: 0, GID: 0})
	root.Nlink = 2
	root.setParent(root)
	root.publishAttrs()
	fs.root.Store(root)
	return fs
}

// Root returns the root directory inode.
func (fs *FS) Root() *Inode { return fs.root.Load() }

// NumInodes returns the live inode count (an invariant checked by tests).
func (fs *FS) NumInodes() int { return int(fs.ninodes.Load()) }

func (fs *FS) now() time.Time { return fs.clock() }

func (fs *FS) newInode(mode uint32, cred Cred) *Inode {
	now := fs.now()
	ip := &Inode{
		fs:    fs,
		layer: fs.layer.Load(),
		Ino:   fs.nextIno.Add(1) - 1,
		typ:   mode & sys.S_IFMT,
		Mode:  mode,
		Nlink: 1,
		UID:   cred.UID,
		GID:   cred.GID,
		Atime: now,
		Mtime: now,
		Ctime: now,
	}
	if ip.typ == sys.S_IFDIR {
		ip.tab.Store(emptyDir)
	}
	ip.publishAttrs()
	fs.ninodes.Add(1)
	return ip
}

// SplitPath breaks a path into its components, dropping empty ones.
// The second result reports whether the path was absolute and the third
// whether it had a trailing slash (so the object must be a directory).
func SplitPath(path string) (parts []string, absolute, wantDir bool) {
	absolute = strings.HasPrefix(path, "/")
	wantDir = strings.HasSuffix(path, "/") && len(path) > 1
	for _, p := range strings.Split(path, "/") {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return parts, absolute, wantDir
}

// Lookup resolves path starting from start (the caller's working directory
// for relative paths), following symbolic links in intermediate components
// and, when follow is set, in the final component too.
func (fs *FS) Lookup(start *Inode, path string, cred Cred, follow bool) (*Inode, sys.Errno) {
	return fs.LookupEx(fs.Root(), start, path, cred, follow)
}

// LookupEx is Lookup with an explicit root directory, for chrooted callers:
// absolute paths and absolute symbolic-link targets resolve from root.
func (fs *FS) LookupEx(root, start *Inode, path string, cred Cred, follow bool) (*Inode, sys.Errno) {
	ip, _, _, err := fs.resolve(root, start, path, cred, follow, false)
	return ip, err
}

// LookupParent resolves everything but the final component of path,
// returning the parent directory, the final component name, and the
// existing inode for that name (nil if absent). Symbolic links in the final
// component are not followed.
func (fs *FS) LookupParent(start *Inode, path string, cred Cred) (dir *Inode, name string, existing *Inode, err sys.Errno) {
	return fs.LookupParentEx(fs.Root(), start, path, cred)
}

// LookupParentEx is LookupParent with an explicit root directory.
func (fs *FS) LookupParentEx(root, start *Inode, path string, cred Cred) (dir *Inode, name string, existing *Inode, err sys.Errno) {
	existing, dir, name, err = fs.resolve(root, start, path, cred, false, true)
	if err == sys.ENOENT && dir != nil && name != "" {
		// Parent found, leaf missing: success for create-style callers.
		return dir, name, nil, sys.OK
	}
	return dir, name, existing, err
}

// CacheStats is a snapshot of the walk's component counters and the stat
// snapshot's counters.
type CacheStats struct {
	Hits    uint64 // components resolved to an inode the filesystem already owned
	Misses  uint64 // components that cloned an image inode on its first reach
	NegHits uint64 // components that were absent
	AttrHit uint64 // stat served from the generation-checked snapshot
	AttrMis uint64 // stat recomputed under the inode lock
}

// cacheCounters holds the FS-wide counters behind CacheStats. The walk
// adds to them once per resolve, not per component.
type cacheCounters struct {
	hits, misses, negHits, attrHit, attrMis atomic.Uint64
}

// CacheStats returns the counter snapshot.
func (fs *FS) CacheStats() CacheStats {
	return CacheStats{
		Hits:    fs.cstats.hits.Load(),
		Misses:  fs.cstats.misses.Load(),
		NegHits: fs.cstats.negHits.Load(),
		AttrHit: fs.cstats.attrHit.Load(),
		AttrMis: fs.cstats.attrMis.Load(),
	}
}

// count adds one resolve's component counts.
func (c *cacheCounters) count(hits, misses, negs uint64) {
	if hits > 0 {
		c.hits.Add(hits)
	}
	if misses > 0 {
		c.misses.Add(misses)
	}
	if negs > 0 {
		c.negHits.Add(negs)
	}
}

// resolve is the pathname walk. It returns the inode path names; with
// wantParent set it also returns the parent directory and the leaf name,
// a missing leaf giving ENOENT with both set, and a "." or ".." leaf or a
// path with no component giving EINVAL.
//
// The walk scans path in place and reads each directory's published name
// table (dirTable) and attribute snapshot, so it takes no lock unless a
// component names an image inode the filesystem has not yet cloned
// (reach). It allocates only to splice a symbolic link's target into the
// path. The result is a snapshot: by the time the caller acts on it, a
// concurrent rename may have moved things, so every mutator re-checks
// the name under the parent's lock.
func (fs *FS) resolve(root, start *Inode, path string, cred Cred, follow, wantParent bool) (ip, parent *Inode, leaf string, err sys.Errno) {
	if root == nil {
		root = fs.Root()
	}
	if path == "" {
		return nil, nil, "", sys.ENOENT
	}
	if len(path) >= sys.PathMax {
		return nil, nil, "", sys.ENAMETOOLONG
	}
	var found, misses, negs uint64
	defer func() { fs.cstats.count(found-misses, misses, negs) }()
	layer := fs.layer.Load() // moves only while fs is quiesced (fork.go)
	cur := start
	if path[0] == '/' || cur == nil {
		cur = root
	}
	nlinks := 0
	for i := 0; ; {
		for i < len(path) && path[i] == '/' {
			i++
		}
		if i == len(path) {
			break
		}
		j := i
		for j < len(path) && path[j] != '/' {
			j++
		}
		name := path[i:j]
		// Peek past trailing slashes: the final component is not a
		// symlink to follow unless follow is set.
		k := j
		for k < len(path) && path[k] == '/' {
			k++
		}
		last := k == len(path)
		i = j

		if len(name) > sys.NameMax {
			return nil, nil, "", sys.ENAMETOOLONG
		}
		if !cur.IsDir() {
			return nil, nil, "", sys.ENOTDIR
		}
		a := cur.attrs.Load()
		if e := CheckAccess(cred, a.mode, a.uid, a.gid, sys.X_OK); e != sys.OK {
			return nil, nil, "", e
		}
		next := cur
		switch name {
		case ".", "..":
			// ".." at the (possibly chroot) root stays put. A parent
			// pointer is always fs's own inode: a directory clone
			// reaches its parent at once (fork.go).
			if pp := cur.parentPtr(); name == ".." && cur != root && pp != nil {
				next = pp
			}
			if last && wantParent {
				return next, nil, "", sys.EINVAL
			}
		default:
			if last && wantParent {
				parent, leaf = cur, name
			}
			if next = cur.names().m[name]; next == nil {
				negs++
				return nil, parent, leaf, sys.ENOENT
			}
			if next.layer != layer || next.fs != fs { // reach, with owns inlined
				var first bool
				if next, first = fs.reachImage(next); first {
					misses++
				}
			}
		}
		found++
		if next.IsSymlink() && (!last || follow) {
			if nlinks++; nlinks > MaxSymlinks {
				return nil, nil, "", sys.ELOOP
			}
			if next.link == "" {
				return nil, nil, "", sys.ENOENT
			}
			if next.link[0] == '/' {
				cur = root
			}
			// Splice the target in place of this component.
			path, i = next.link+path[j:], 0
			continue
		}
		cur = next
	}
	// A trailing slash requires the object to be a directory.
	if n := len(path); n > 1 && path[n-1] == '/' && !cur.IsDir() {
		return nil, nil, "", sys.ENOTDIR
	}
	if wantParent && parent == nil {
		// The path was "/" — it has no parent component.
		return cur, nil, "", sys.EINVAL
	}
	return cur, parent, leaf, sys.OK
}

// checkWrite verifies that cred may modify directory dir's contents.
// Caller holds dir.mu.
func checkWrite(cred Cred, dir *Inode) sys.Errno {
	return CheckAccess(cred, dir.Mode, dir.UID, dir.GID, sys.W_OK)
}

// stickyCheck enforces the sticky-directory deletion rule. Caller holds
// dir.mu but not victim.mu (the victim's owner is read under its own lock).
func stickyCheck(cred Cred, dir, victim *Inode) sys.Errno {
	if dir.Mode&sys.S_ISVTX == 0 || cred.Root() {
		return sys.OK
	}
	victim.mu.RLock()
	vuid := victim.UID
	victim.mu.RUnlock()
	if cred.UID != dir.UID && cred.UID != vuid {
		return sys.EPERM
	}
	return sys.OK
}

// Create makes a new regular file entry name in dir with the given
// permission bits. It fails with EEXIST if the name is taken.
func (fs *FS) Create(dir *Inode, name string, perm uint32, cred Cred) (*Inode, sys.Errno) {
	return fs.makeNode(dir, name, sys.S_IFREG|perm&0o7777, cred, nil, "", 0)
}

// Mkdir makes a new directory entry name in dir.
func (fs *FS) Mkdir(dir *Inode, name string, perm uint32, cred Cred) (*Inode, sys.Errno) {
	return fs.makeNode(dir, name, sys.S_IFDIR|perm&0o7777, cred, nil, "", 0)
}

// Symlink makes a symbolic link entry name in dir pointing at target.
func (fs *FS) Symlink(dir *Inode, name, target string, cred Cred) (*Inode, sys.Errno) {
	return fs.makeNode(dir, name, sys.S_IFLNK|0o777, cred, nil, target, 0)
}

// MkDev makes a character-device entry name in dir backed by dev.
func (fs *FS) MkDev(dir *Inode, name string, perm, rdev uint32, dev Device, cred Cred) (*Inode, sys.Errno) {
	return fs.makeNode(dir, name, sys.S_IFCHR|perm&0o7777, cred, dev, "", rdev)
}

// makeNode creates and publishes a fully initialized inode under dir. The
// new inode is complete — device vector, link target, directory setup —
// before it is inserted, so no observer can see a half-built node.
func (fs *FS) makeNode(dir *Inode, name string, mode uint32, cred Cred, dev Device, link string, rdev uint32) (*Inode, sys.Errno) {
	if !dir.IsDir() {
		return nil, sys.ENOTDIR
	}
	if name == "" || name == "." || name == ".." || strings.Contains(name, "/") {
		return nil, sys.EINVAL
	}
	if len(name) > sys.NameMax {
		return nil, sys.ENAMETOOLONG
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	dir.writable()
	if dir.Nlink == 0 {
		return nil, sys.ENOENT // directory was removed under us
	}
	if dir.child(name) != nil {
		return nil, sys.EEXIST
	}
	if e := checkWrite(cred, dir); e != sys.OK {
		return nil, e
	}
	ip := fs.newInode(mode, cred)
	ip.dev = dev
	ip.link = link
	ip.Rdev = rdev
	// BSD semantics: new files inherit the group of their directory.
	ip.GID = dir.GID
	ip.publishAttrs() // republish: the group changed after newInode
	if e := fs.jlog(&journal.Record{Op: journal.OpCreate, Dir: dir.Ino, Name: name,
		Ino: ip.Ino, Mode: ip.Mode, UID: ip.UID, GID: ip.GID, Rdev: rdev,
		Data: []byte(link)}); e != sys.OK {
		fs.ninodes.Add(-1) // newInode counted it; the node is never published
		return nil, e
	}
	if ip.IsDir() {
		ip.Nlink = 2 // "." counts
		ip.setParent(dir)
		dir.Nlink++ // ".." in the child
	}
	if dev != nil {
		fs.bind(rdev, dev)
	}
	dir.insertLocked(name, ip)
	return ip, sys.OK
}

// Link adds a hard link named name in dir to the existing inode target.
func (fs *FS) Link(dir *Inode, name string, target *Inode, cred Cred) sys.Errno {
	if target.IsDir() {
		return sys.EPERM
	}
	if !dir.IsDir() {
		return sys.ENOTDIR
	}
	if name == "" || name == "." || name == ".." {
		return sys.EINVAL
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	dir.writable()
	if dir.Nlink == 0 {
		return sys.ENOENT
	}
	if dir.child(name) != nil {
		return sys.EEXIST
	}
	if e := checkWrite(cred, dir); e != sys.OK {
		return e
	}
	target.writable()
	target.mu.Lock()
	if target.Nlink >= 32767 {
		target.mu.Unlock()
		return sys.EMLINK
	}
	if target.Nlink == 0 {
		// Lost a race with the final unlink; linking would resurrect a
		// reclaimed inode and corrupt the live count.
		target.mu.Unlock()
		return sys.ENOENT
	}
	if e := fs.jlog(&journal.Record{Op: journal.OpLink, Dir: dir.Ino, Name: name,
		Ino: target.Ino}); e != sys.OK {
		target.mu.Unlock()
		return e
	}
	target.Nlink++
	target.Ctime = fs.now()
	target.bump()
	target.mu.Unlock()
	dir.insertLocked(name, target)
	return sys.OK
}

// Unlink removes the entry name from dir. Directories cannot be unlinked.
func (fs *FS) Unlink(dir *Inode, name string, cred Cred) sys.Errno {
	if !dir.IsDir() {
		return sys.ENOTDIR
	}
	if name == "." || name == ".." {
		return sys.EINVAL
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	dir.writable()
	if dir.Nlink == 0 {
		return sys.ENOENT
	}
	victim := dir.child(name)
	if victim == nil {
		return sys.ENOENT
	}
	if victim.IsDir() {
		return sys.EPERM
	}
	if e := checkWrite(cred, dir); e != sys.OK {
		return e
	}
	if e := stickyCheck(cred, dir, victim); e != sys.OK {
		return e
	}
	if e := fs.jlog(&journal.Record{Op: journal.OpUnlink, Dir: dir.Ino, Name: name,
		Ino: victim.Ino}); e != sys.OK {
		return e
	}
	dir.removeLocked(name)
	fs.drop(victim)
	return sys.OK
}

// Rmdir removes the empty directory entry name from dir.
func (fs *FS) Rmdir(dir *Inode, name string, cred Cred) sys.Errno {
	if !dir.IsDir() {
		return sys.ENOTDIR
	}
	if name == "." || name == ".." {
		return sys.EINVAL
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	dir.writable()
	if dir.Nlink == 0 {
		return sys.ENOENT
	}
	victim := dir.child(name)
	if victim == nil {
		return sys.ENOENT
	}
	if !victim.IsDir() {
		return sys.ENOTDIR
	}
	if victim == fs.Root() {
		return sys.EBUSY
	}
	if e := checkWrite(cred, dir); e != sys.OK {
		return e
	}
	if e := stickyCheck(cred, dir, victim); e != sys.OK {
		return e
	}
	victim.mu.Lock()
	if len(victim.names().order) != 0 {
		victim.mu.Unlock()
		return sys.ENOTEMPTY
	}
	if e := fs.jlog(&journal.Record{Op: journal.OpRmdir, Dir: dir.Ino, Name: name,
		Ino: victim.Ino}); e != sys.OK {
		victim.mu.Unlock()
		return e
	}
	victim.Nlink = 0
	victim.setParent(nil)
	victim.bump()
	victim.mu.Unlock()
	dir.removeLocked(name)
	dir.Nlink-- // the victim's ".."
	fs.ninodes.Add(-1)
	return sys.OK
}

// drop decrements a link count and reclaims the inode at zero. Caller
// holds the parent directory's lock but not ip's.
func (fs *FS) drop(ip *Inode) {
	ip.mu.Lock()
	ip.Nlink--
	ip.Ctime = fs.now()
	ip.bump()
	last := ip.Nlink == 0
	ip.mu.Unlock()
	if last {
		fs.ninodes.Add(-1)
		// Data stays reachable through any open file description; the Go
		// garbage collector is our block-free list.
	}
}

// orderParents returns rename's two (distinct) parent directories in lock
// order: the ancestor first if one contains the other, otherwise by inode
// number. Caller holds renameMu, so the answer cannot be invalidated by a
// concurrent rename.
func (fs *FS) orderParents(a, b *Inode) (*Inode, *Inode) {
	switch {
	case fs.contains(a, b):
		return a, b
	case fs.contains(b, a):
		return b, a
	case a.Ino < b.Ino:
		return a, b
	}
	return b, a
}

// contains reports whether directory a is d or one of d's ancestors.
// Caller holds renameMu, which keeps the ancestry still.
func (fs *FS) contains(a, d *Inode) bool {
	root := fs.Root()
	for {
		if d == a {
			return true
		}
		pp := d.parentPtr()
		if d == root || pp == nil || pp == d {
			return false
		}
		d = pp
	}
}

// Rename moves the entry oldName in oldDir to newName in newDir, replacing
// a compatible existing target, with the usual Unix restrictions.
func (fs *FS) Rename(oldDir *Inode, oldName string, newDir *Inode, newName string, cred Cred) sys.Errno {
	if !oldDir.IsDir() || !newDir.IsDir() {
		return sys.ENOTDIR
	}
	if oldName == "." || oldName == ".." || newName == "." || newName == ".." ||
		oldName == "" || newName == "" {
		return sys.EINVAL
	}
	fs.renameMu.Lock()
	defer fs.renameMu.Unlock()

	first, second := oldDir, newDir
	if oldDir != newDir {
		first, second = fs.orderParents(oldDir, newDir)
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	if second != first {
		second.mu.Lock()
		defer second.mu.Unlock()
	}
	oldDir.writable()
	newDir.writable()
	if oldDir.Nlink == 0 || newDir.Nlink == 0 {
		return sys.ENOENT
	}

	src := oldDir.child(oldName)
	if src == nil {
		return sys.ENOENT
	}
	// A directory may not be moved into itself or a descendant. This also
	// rules out src == newDir, so the child locks taken below can never
	// alias the parent locks already held.
	if src.IsDir() && fs.contains(src, newDir) {
		return sys.EINVAL
	}
	if e := checkWrite(cred, oldDir); e != sys.OK {
		return e
	}
	if e := checkWrite(cred, newDir); e != sys.OK {
		return e
	}
	if e := stickyCheck(cred, oldDir, src); e != sys.OK {
		return e
	}
	dst := newDir.child(newName)
	if dst == src {
		return sys.OK // rename to self is a no-op
	}
	if dst != nil {
		switch {
		case dst.IsDir() && !src.IsDir():
			return sys.EISDIR
		case !dst.IsDir() && src.IsDir():
			return sys.ENOTDIR
		case dst.IsDir() && fs.contains(dst, oldDir):
			// dst holds src, so it is not empty, and its lock may already
			// be held as oldDir or belong above it in lock order.
			return sys.ENOTEMPTY
		}
	}
	// One logical record covers the whole rename, replacement included, so
	// it is logged only after every remaining check has passed and before
	// the first mutation.
	rec := &journal.Record{Op: journal.OpRename, Dir: oldDir.Ino, Name: oldName,
		Dir2: newDir.Ino, Name2: newName, Ino: src.Ino}
	switch {
	case dst != nil && dst.IsDir():
		dst.mu.Lock()
		if len(dst.names().order) != 0 {
			dst.mu.Unlock()
			return sys.ENOTEMPTY
		}
		if e := stickyCheckLocked(cred, newDir, dst.UID); e != sys.OK {
			dst.mu.Unlock()
			return e
		}
		if e := fs.jlog(rec); e != sys.OK {
			dst.mu.Unlock()
			return e
		}
		dst.Nlink = 0
		dst.setParent(nil)
		dst.bump()
		dst.mu.Unlock()
		newDir.Nlink--
		fs.ninodes.Add(-1)
	case dst != nil:
		if e := stickyCheck(cred, newDir, dst); e != sys.OK {
			return e
		}
		if e := fs.jlog(rec); e != sys.OK {
			return e
		}
		fs.drop(dst)
	default:
		if e := fs.jlog(rec); e != sys.OK {
			return e
		}
	}
	moveLocked(oldDir, oldName, newDir, newName, src)
	if src.IsDir() && oldDir != newDir {
		oldDir.Nlink--
		newDir.Nlink++
	}
	src.mu.Lock()
	if src.IsDir() {
		src.setParent(newDir)
	}
	src.Ctime = fs.now()
	src.bump()
	src.mu.Unlock()
	return sys.OK
}

// stickyCheckLocked is stickyCheck for callers already holding the
// victim's lock (they pass the owner they read under it).
func stickyCheckLocked(cred Cred, dir *Inode, victimUID uint32) sys.Errno {
	if dir.Mode&sys.S_ISVTX == 0 || cred.Root() {
		return sys.OK
	}
	if cred.UID != dir.UID && cred.UID != victimUID {
		return sys.EPERM
	}
	return sys.OK
}

// Chmod sets the permission bits of ip.
func (fs *FS) Chmod(ip *Inode, mode uint32, cred Cred) sys.Errno {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	ip.writable()
	if !cred.Root() && cred.UID != ip.UID {
		return sys.EPERM
	}
	if e := fs.jlog(&journal.Record{Op: journal.OpChmod, Ino: ip.Ino,
		Mode: ip.typ | mode&0o7777}); e != sys.OK {
		return e
	}
	ip.Mode = ip.typ | mode&0o7777
	ip.Ctime = fs.now()
	ip.bump()
	ip.publishAttrs()
	return sys.OK
}

// Chown sets ownership of ip. Only the super-user may change the owner;
// an owner may change the group to one they belong to. 0xffffffff leaves a
// field unchanged.
func (fs *FS) Chown(ip *Inode, uid, gid uint32, cred Cred) sys.Errno {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	ip.writable()
	if !cred.Root() {
		if uid != 0xffffffff && uid != ip.UID {
			return sys.EPERM
		}
		if cred.UID != ip.UID {
			return sys.EPERM
		}
		if gid != 0xffffffff && !cred.InGroup(gid) {
			return sys.EPERM
		}
	}
	// Resolve the absolute post-call identity (0xffffffff keeps a field,
	// non-root chown clears set-id bits) so the journal record replays
	// without re-deriving credentials.
	newUID, newGID, newMode := ip.UID, ip.GID, ip.Mode
	if uid != 0xffffffff {
		newUID = uid
	}
	if gid != 0xffffffff {
		newGID = gid
	}
	if !cred.Root() {
		newMode &^= sys.S_ISUID | sys.S_ISGID
	}
	if e := fs.jlog(&journal.Record{Op: journal.OpChown, Ino: ip.Ino,
		UID: newUID, GID: newGID, Mode: newMode}); e != sys.OK {
		return e
	}
	ip.UID, ip.GID, ip.Mode = newUID, newGID, newMode
	ip.Ctime = fs.now()
	ip.bump()
	ip.publishAttrs()
	return sys.OK
}

// Utimes sets the access and modification times of ip.
func (fs *FS) Utimes(ip *Inode, atime, mtime time.Time, cred Cred) sys.Errno {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	ip.writable()
	if !cred.Root() && cred.UID != ip.UID {
		if e := CheckAccess(cred, ip.Mode, ip.UID, ip.GID, sys.W_OK); e != sys.OK {
			return sys.EPERM
		}
	}
	if e := fs.jlog(&journal.Record{Op: journal.OpUtimes, Ino: ip.Ino,
		Off: atime.UnixNano(), Size: mtime.UnixNano()}); e != sys.OK {
		return e
	}
	ip.Atime, ip.Mtime = atime, mtime
	ip.Ctime = fs.now()
	ip.bump()
	return sys.OK
}

// Access checks want against ip for cred (the access system call).
func (fs *FS) Access(ip *Inode, want int, cred Cred) sys.Errno {
	if want == sys.F_OK {
		return sys.OK
	}
	ip.mu.RLock()
	defer ip.mu.RUnlock()
	return CheckAccess(cred, ip.Mode, ip.UID, ip.GID, want)
}

package vfs

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"interpose/internal/journal"
	"interpose/internal/mem"
	"interpose/internal/sys"
)

// Device is the operations vector of a character device. Device inodes
// dispatch read, write and ioctl to it. Implementations live in the kernel
// (tty, null, zero, ...).
type Device interface {
	Read(p []byte, off int64) (int, sys.Errno)
	Write(p []byte, off int64) (int, sys.Errno)
	Ioctl(req sys.Word, arg sys.Word, c sys.Ctx) sys.Errno
}

// Inode is one filesystem object, protected by its own read-write lock.
// Immutable-after-creation fields (the type bits, the device vector, the
// symlink target, the inode number) are read without it; everything else
// is accessed under mu. The parent pointer is additionally readable
// lock-free (it is atomic) so ancestry walks need no lock at all.
type Inode struct {
	mu sync.RWMutex

	fs    *FS
	layer uint32 // fs's layer when this inode was made; frozen once fs moves past it (fork.go)
	Ino   uint32
	typ   uint32 // file-type bits of Mode; immutable
	Mode  uint32 // file type | permission bits
	Nlink uint32
	UID   uint32
	GID   uint32
	Rdev  uint32

	Atime time.Time
	Mtime time.Time
	Ctime time.Time

	data []byte // regular files
	link string // symlink target; immutable

	// cow marks data as an image's array (fork.go): it is never written
	// in place or extended into its spare capacity, so the first write
	// copies it out. Guarded by mu.
	cow bool

	// Directories: the name table (see dirTable) and ".." pointer.
	tab    atomic.Pointer[dirTable]
	parent atomic.Pointer[Inode]

	dev Device // character devices; immutable

	// gen counts stat-visible mutations (data, times, ownership, link
	// count, entry table). It is bumped only while mu is held exclusively
	// and read lock-free: a cached attribute snapshot tagged with the
	// current generation is still valid.
	gen atomic.Uint64

	// attrs is the lock-free access-check snapshot (mode, uid, gid),
	// republished on chmod/chown. The pathname walk evaluates directory
	// execute permission against it without taking mu.
	attrs atomic.Pointer[attrSnap]

	// statc caches the last computed Stat together with the generation it
	// was computed at; stat/fstat serve from it while the generation is
	// unchanged.
	statc atomic.Pointer[statSnap]

	// Advisory flock state. These fields belong to the kernel's global
	// flock lock, not to mu: they are read and written together with the
	// descriptor-layer lock bookkeeping.
	LockEx     bool
	LockShared int
}

// dirTable is a directory's name table: the lookup map and the stable
// insertion order that iteration follows. A published table is never
// changed. publishLocked, run with the directory's mu held
// exclusively, publishes a new one, so the pathname walk reads a
// table without a lock and sees each mutation whole or not at all, and
// a directory clone shares its image's table until its first mutation
// (fork.go). Entries of a clone's table may name image inodes, which
// every read maps through FS.reach.
type dirTable struct {
	m     map[string]*Inode
	order []string
	// dir is the directory that published the table. Only it appends to
	// order in place, past the end every older table of its own sees; a
	// clone sharing the table copies order first.
	dir *Inode
}

// emptyDir is the table of every directory that has never held an entry.
var emptyDir = &dirTable{}

// names returns the directory's entry table (nil for non-directories).
func (ip *Inode) names() *dirTable { return ip.tab.Load() }

// attrSnap is the atomically published permission snapshot of an inode.
type attrSnap struct {
	mode, uid, gid uint32
}

// statSnap is a Stat computed at a known generation.
type statSnap struct {
	gen uint64
	st  sys.Stat
}

// bump invalidates cached attribute state. Callers hold mu exclusively
// (or the inode is not yet published).
func (ip *Inode) bump() { ip.gen.Add(1) }

// publishAttrs refreshes the lock-free permission snapshot from the
// current mode/owner. Callers hold mu exclusively (or the inode is not
// yet published).
func (ip *Inode) publishAttrs() {
	ip.attrs.Store(&attrSnap{mode: ip.Mode, uid: ip.UID, gid: ip.GID})
}

// Gen returns the current attribute generation (lock-free). Consumers
// cache derived state keyed by inode + generation — the exec loader keeps
// parsed images this way.
func (ip *Inode) Gen() uint64 { return ip.gen.Load() }

// Type returns the file-type bits of the mode.
func (ip *Inode) Type() uint32 { return ip.typ }

// IsDir reports whether the inode is a directory.
func (ip *Inode) IsDir() bool { return ip.typ == sys.S_IFDIR }

// IsSymlink reports whether the inode is a symbolic link.
func (ip *Inode) IsSymlink() bool { return ip.typ == sys.S_IFLNK }

// IsDevice reports whether the inode is a character device.
func (ip *Inode) IsDevice() bool { return ip.typ == sys.S_IFCHR }

// Device returns the operations vector of a device inode (nil otherwise).
func (ip *Inode) Device() Device { return ip.dev }

func (ip *Inode) parentPtr() *Inode   { return ip.parent.Load() }
func (ip *Inode) setParent(pp *Inode) { ip.parent.Store(pp) }

// size returns the logical size; directories report their entry count
// encoded as dirent records, symlinks their target length. Caller holds mu.
func (ip *Inode) size() uint32 {
	switch ip.typ {
	case sys.S_IFREG:
		return uint32(len(ip.data))
	case sys.S_IFLNK:
		return uint32(len(ip.link))
	case sys.S_IFDIR:
		n := sys.DirentRecLen(".") + sys.DirentRecLen("..")
		for _, name := range ip.names().order {
			n += sys.DirentRecLen(name)
		}
		return uint32(n)
	}
	return 0
}

// Stat fills a sys.Stat from the inode. While the attribute generation is
// unchanged it is served from a cached snapshot without taking the inode
// lock; the generation check makes a stale snapshot impossible to serve
// (every stat-visible mutation bumps the generation under the write lock).
func (ip *Inode) Stat() sys.Stat {
	if sc := ip.statc.Load(); sc != nil && sc.gen == ip.gen.Load() {
		ip.fs.cstats.attrHit.Add(1)
		return sc.st
	}
	ip.mu.RLock()
	st := ip.statLocked()
	// gen is stable under the read lock (bumps require the write lock), so
	// the snapshot is tagged with exactly the generation it reflects.
	g := ip.gen.Load()
	ip.mu.RUnlock()
	ip.fs.cstats.attrMis.Add(1)
	ip.statc.Store(&statSnap{gen: g, st: st})
	return st
}

func (ip *Inode) statLocked() sys.Stat {
	return sys.Stat{
		Dev:     ip.fs.dev,
		Ino:     ip.Ino,
		Mode:    ip.Mode,
		Nlink:   ip.Nlink,
		UID:     ip.UID,
		GID:     ip.GID,
		Rdev:    ip.Rdev,
		Size:    ip.size(),
		Atime:   toTimeval(ip.Atime),
		Mtime:   toTimeval(ip.Mtime),
		Ctime:   toTimeval(ip.Ctime),
		Blksize: sys.PageSize,
		Blocks:  (ip.size() + 511) / 512,
	}
}

func toTimeval(t time.Time) sys.Timeval {
	return sys.Timeval{Sec: uint32(t.Unix()), Usec: uint32(t.Nanosecond() / 1000)}
}

// unshareData makes ip the owner of its data array before an in-place
// mutation, copying an image's array out. Caller holds ip.mu exclusively.
func (ip *Inode) unshareData() {
	if ip.cow {
		ip.data = append([]byte(nil), ip.data...)
		ip.cow = false
	}
}

// growLocked extends the file to end bytes, zero-filling from the old
// length. An owned array grows in place within its capacity and
// otherwise moves to the allocator's class at or above twice its
// capacity (mem.Alloc), so a file built by appends is copied O(log n)
// times and each of its bytes about once in all; the array it leaves
// goes back to the allocator. A first growth from empty takes a recycled
// array of at least a page when one is free, and otherwise allocates
// exactly end bytes: a file written whole pays for no headroom, and a
// boot's files stay exact-size. The spare capacity may hold stale bytes
// from a truncate-down, which is why the new tail is cleared. An image's
// array (cow) is never extended in place, nor given back: every clone of
// the image shares it. Caller holds ip.mu exclusively.
func (ip *Inode) growLocked(end int64) {
	old := len(ip.data)
	if !ip.cow && int(end) <= cap(ip.data) {
		ip.data = ip.data[:end]
		clear(ip.data[old:])
		return
	}
	var nd []byte
	switch {
	case old == 0:
		if end >= mem.MinClass {
			nd = mem.Recycled(int(end))
		}
		if nd == nil {
			nd = make([]byte, end)
		}
	case ip.cow:
		nd = mem.Alloc(int(end), 0)
	default:
		nd = mem.Alloc(int(end), 2*cap(ip.data))
	}
	copy(nd, ip.data)
	ip.putLocked()
	ip.data = nd
}

// putLocked gives an owned array back to the allocator and leaves the
// file empty, reporting whether the array went back; an image's array
// (cow) is only dropped. Caller holds ip.mu exclusively.
func (ip *Inode) putLocked() bool {
	put := !ip.cow && mem.Free(ip.data)
	ip.data, ip.cow = nil, false
	return put
}

// writeLocked copies p into the file data at off, growing it as needed.
// Caller holds ip.mu exclusively.
func (ip *Inode) writeLocked(p []byte, off int64) {
	if end := off + int64(len(p)); end > int64(len(ip.data)) {
		ip.growLocked(end)
	} else {
		// Never scribble on an image's array.
		ip.unshareData()
	}
	copy(ip.data[off:], p)
}

// truncateLocked sets the file length. A truncate to zero gives an owned
// array back to the allocator; any other shrink is a reslice: the
// array's bytes are untouched, so an image's array stays shared (cow)
// after a truncate-down. Caller holds ip.mu exclusively.
func (ip *Inode) truncateLocked(length int64) {
	if length == 0 {
		ip.putLocked()
	} else if length < int64(len(ip.data)) {
		ip.data = ip.data[:length]
	} else if length > int64(len(ip.data)) {
		ip.growLocked(length)
	}
}

// ReadAt copies file data at offset off into p, returning the byte count.
// Reading at or past EOF returns 0. Device inodes dispatch to their driver.
func (ip *Inode) ReadAt(p []byte, off int64) (int, sys.Errno) {
	if ip.dev != nil {
		return ip.dev.Read(p, off)
	}
	if ip.IsDir() {
		return 0, sys.EISDIR
	}
	ip.mu.Lock() // write lock: reads update the access time
	defer ip.mu.Unlock()
	ip.writable()
	ip.Atime = ip.fs.now()
	ip.bump()
	if off >= int64(len(ip.data)) {
		return 0, sys.OK
	}
	n := copy(p, ip.data[off:])
	return n, sys.OK
}

// WriteAt copies p into the file at offset off, growing (and
// zero-filling any hole) as needed. maxSize, when nonzero, caps the
// resulting file size (RLIMIT_FSIZE).
func (ip *Inode) WriteAt(p []byte, off int64, maxSize int64) (int, sys.Errno) {
	if ip.dev != nil {
		return ip.dev.Write(p, off)
	}
	if ip.IsDir() {
		return 0, sys.EISDIR
	}
	ip.mu.Lock()
	defer ip.mu.Unlock()
	ip.writable()
	end := off + int64(len(p))
	if maxSize > 0 && end > maxSize {
		if off >= maxSize {
			return 0, sys.EFBIG
		}
		p = p[:maxSize-off]
		end = maxSize
	}
	if e := ip.fs.jlog(&journal.Record{Op: journal.OpWrite, Ino: ip.Ino,
		Off: off, Data: p}); e != sys.OK {
		return 0, e
	}
	ip.writeLocked(p, off)
	now := ip.fs.now()
	ip.Mtime, ip.Ctime = now, now
	ip.bump()
	return len(p), sys.OK
}

// Truncate sets the file length, zero-filling growth.
func (ip *Inode) Truncate(length int64) sys.Errno {
	if ip.IsDir() {
		return sys.EISDIR
	}
	if ip.dev != nil {
		return sys.OK
	}
	if length < 0 {
		return sys.EINVAL
	}
	ip.mu.Lock()
	defer ip.mu.Unlock()
	ip.writable()
	if e := ip.fs.jlog(&journal.Record{Op: journal.OpTruncate, Ino: ip.Ino,
		Size: length}); e != sys.OK {
		return e
	}
	ip.truncateLocked(length)
	now := ip.fs.now()
	ip.Mtime, ip.Ctime = now, now
	ip.bump()
	return sys.OK
}

// Bytes returns a copy of a regular file's contents.
func (ip *Inode) Bytes() []byte {
	ip.mu.RLock()
	defer ip.mu.RUnlock()
	out := make([]byte, len(ip.data))
	copy(out, ip.data)
	return out
}

// Size returns the logical size of the inode.
func (ip *Inode) Size() int64 {
	ip.mu.RLock()
	defer ip.mu.RUnlock()
	return int64(ip.size())
}

// Readlink returns the target of a symbolic link.
func (ip *Inode) Readlink() (string, sys.Errno) {
	if !ip.IsSymlink() {
		return "", sys.EINVAL
	}
	return ip.link, sys.OK
}

// Dirents returns the directory's entries in iteration order, with "." and
// ".." synthesized first, as getdirentries presents them.
func (ip *Inode) Dirents() ([]sys.Dirent, sys.Errno) {
	if !ip.IsDir() {
		return nil, sys.ENOTDIR
	}
	t := ip.names()
	out := make([]sys.Dirent, 0, len(t.order)+2)
	out = append(out, sys.Dirent{Ino: ip.Ino, Name: "."})
	pp := ip.parentPtr()
	if pp == nil {
		pp = ip
	}
	out = append(out, sys.Dirent{Ino: pp.Ino, Name: ".."})
	for _, name := range t.order {
		out = append(out, sys.Dirent{Ino: t.m[name].Ino, Name: name})
	}
	return out, sys.OK
}

// EntryCount returns the number of real (non-dot) directory entries.
func (ip *Inode) EntryCount() (int, sys.Errno) {
	if !ip.IsDir() {
		return 0, sys.ENOTDIR
	}
	return len(ip.names().order), sys.OK
}

// directory-entry helpers; callers hold the directory's lock.

// child returns the entry name as an inode of ip's own filesystem,
// cloning it from the image the first time it is reached (nil if absent).
func (ip *Inode) child(name string) *Inode {
	return ip.fs.reach(ip.names().m[name])
}

// publishLocked publishes ip's table with the entry drop removed and
// name bound to child, in one step; an empty drop or name skips that
// half. A bound name replaces any entry of that name and goes to the end
// of the order, where an unlink and a create would leave it. Caller
// holds ip.mu exclusively.
func (ip *Inode) publishLocked(drop, name string, child *Inode) {
	old := ip.names()
	m := make(map[string]*Inode, len(old.m)+1)
	maps.Copy(m, old.m)
	order := old.order
	if old.dir != ip {
		order = slices.Clip(order)
	}
	for _, gone := range [2]string{drop, name} {
		if _, ok := m[gone]; ok {
			delete(m, gone)
			i := slices.Index(order, gone)
			order = slices.Concat(order[:i], order[i+1:]) // a new array: older tables share this one
		}
	}
	if name != "" {
		m[name] = child
		order = append(order, name)
	}
	ip.tab.Store(&dirTable{m: m, order: order, dir: ip})
	now := ip.fs.now()
	ip.Mtime, ip.Ctime = now, now
	ip.bump()
}

func (ip *Inode) insertLocked(name string, child *Inode) { ip.publishLocked("", name, child) }
func (ip *Inode) removeLocked(name string)               { ip.publishLocked(name, "", nil) }

// moveLocked publishes the move of src from oldName in oldDir to newName
// in newDir, replacing any entry of newName. In one directory that is
// one table; across two, newDir's goes first, so a walk never finds
// newName missing. Caller holds both directories' locks exclusively.
func moveLocked(oldDir *Inode, oldName string, newDir *Inode, newName string, src *Inode) {
	if oldDir == newDir {
		oldDir.publishLocked(oldName, newName, src)
		return
	}
	newDir.insertLocked(newName, src)
	oldDir.removeLocked(oldName)
}

package vfs

import (
	"fmt"
	"maps"
	"sync/atomic"
	"time"

	"interpose/internal/sys"
)

// Copy-on-reach forking. Fork freezes the parent's tree as an immutable
// image and hands the child an empty overlay on it, so a fork costs the
// same at 64 inodes as at 8,192. The child clones an inode the first time
// a path walk, rename, link or journal replay reaches it; an inode it
// never reaches is never copied. This is the paper's union directory
// built kernel-side — a private writable layer over a shared read-only
// one — and its pay-per-use rule: a world pays for what it touches.
//
// Freezing is O(1). Every inode carries the layer of its filesystem it
// was made at; a freeze bumps the filesystem's layer, and an inode whose
// layer lags its filesystem's is part of an image. A filesystem that has
// not changed since its last freeze forks its current image again, so a
// template forked many times freezes once. A parent that keeps running
// continues on an overlay of its own image, exactly as a child does.
//
// What a clone copies and what it shares:
//
//   - the inode struct: copied (the per-inode clone below, run on first
//     reach);
//   - a directory's name table (dirTable): shared. A published table
//     never changes, so the clone's first insert or remove publishes its
//     own and the image never sees it;
//   - file data: shared. An image's arrays never change, so the clone is
//     marked cow and copies its bytes before its first write;
//   - the attribute snapshot (attrs): shared; it is immutable;
//   - the stat snapshot (statc): not shared; a clone computes its own.
//
// An overlay's directory entries may therefore name image inodes. Every
// read of an entry goes through reach, which maps an image inode to the
// overlay's clone of that number (cloning it on first reach), so the
// kernel only ever holds inodes of its own filesystem and a hard link is
// cloned once per ino. The clone index is read without a lock: only the
// first reach of a number takes ovMu, and every reach of an outlying
// number past the index's dense bound (cloneIndex). A directory clone
// reaches its parent at once, so ".." and every ancestry walk stay
// inside the overlay.
//
// An image frozen from an overlay can hold stale pointers: a directory
// the overlay never reached still names the older version of a file the
// overlay changed. The image therefore keeps the overlay's clones by
// number (image.newer) and reach and peek read an image inode through it.
//
// StateHash, Check and WriteSnapshot read through an overlay (peek) and
// clone nothing. Any mutator that reaches an image inode panics
// (writable): a frozen image is shared by every overlay on it.
//
// Journaling: an image carries the applied-sequence watermark (jnlSeq) and
// a fork carries it on, with no journal writer. The caller seals the
// parent's journal epoch before forking, so replaying the parent's
// journal onto the child applies zero records.

// image is a frozen filesystem tree. Nothing in it changes after freeze.
type image struct {
	root *Inode
	// newer maps an inode number to its version in this image wherever an
	// image directory may point at an older one: the clones of the
	// overlays this image was frozen from. Nil unless fs was an overlay.
	newer   map[uint32]*Inode
	devs    []uint32 // rdevs of the image's device nodes; a fork binds each
	nextIno uint32
	ninodes int64
	jnlSeq  uint64
}

// version returns the image's version of ip, any image inode of its tree.
func (img *image) version(ip *Inode) *Inode {
	if v := img.newer[ip.Ino]; v != nil {
		return v
	}
	return ip
}

// binding is one device driver of a filesystem, by rdev.
type binding struct {
	rdev uint32
	dev  Device
}

// Fork freezes the filesystem and returns a copy-on-reach overlay on its
// image. clock supplies the child's timestamps (the parent's clock when
// nil); resolve maps a device inode's rdev to the child world's driver
// vector — device inodes must not keep the parent's drivers, or guest
// I/O would cross worlds — and may be nil only when the tree holds no
// device nodes. Fork fails if any device node of the image has no driver.
// The parent must be quiesced (no running mutators) while it forks, and
// an inode pointer the parent held before the fork is frozen afterwards:
// the parent continues on its own overlay, reached from Root.
func (fs *FS) Fork(clock func() time.Time, resolve func(rdev uint32) (Device, bool)) (*FS, error) {
	img := fs.freeze()
	if clock == nil {
		clock = fs.clock
	}
	child := &FS{dev: fs.dev, clock: clock, img: img}
	for _, rdev := range img.devs {
		var dev Device
		if resolve != nil {
			dev, _ = resolve(rdev)
		}
		if dev == nil {
			return nil, fmt.Errorf("vfs: fork: device %d:%d has no driver in the child", rdev>>8, rdev&0xff)
		}
		child.drivers = append(child.drivers, binding{rdev, dev})
	}
	child.nextIno.Store(img.nextIno)
	child.ninodes.Store(img.ninodes)
	child.jnlSeq.Store(img.jnlSeq)
	child.root.Store(child.reachLocked(img.root)) // child is not yet shared
	return child, nil
}

// freeze returns the image of the filesystem's current tree: the image
// it is an overlay on when nothing changed since, or a new one made by
// moving fs to a fresh layer over its current tree.
func (fs *FS) freeze() *image {
	fs.ovMu.Lock()
	defer fs.ovMu.Unlock()
	if fs.img != nil && !fs.changed.Load() {
		return fs.img
	}
	img := &image{
		root:    fs.Root(),
		nextIno: fs.nextIno.Load(),
		ninodes: fs.ninodes.Load(),
		jnlSeq:  fs.jnlSeq.Load(),
	}
	for _, b := range fs.drivers {
		img.devs = append(img.devs, b.rdev)
	}
	if fs.img != nil {
		img.newer = make(map[uint32]*Inode, len(fs.img.newer))
		maps.Copy(img.newer, fs.img.newer)
		fs.eachCloneLocked(func(c *Inode) { img.newer[c.Ino] = c })
	}
	fs.layer.Add(1)
	fs.img = img
	fs.clones.Store(nil)
	fs.sparse = nil
	fs.changed.Store(false)
	fs.root.Store(fs.reachLocked(img.root))
	return img
}

// owns reports whether ip is one of fs's own, mutable inodes.
func (fs *FS) owns(ip *Inode) bool {
	return ip.fs == fs && ip.layer == fs.layer.Load()
}

// Release gives back to the allocator every file array an inode of the
// filesystem's current layer owns, at world teardown, and returns how
// many went back. It reaches those inodes through the clone index and
// the directories the layer owns; a file made at this layer that no
// directory names any more is left to the garbage collector. An image's
// arrays (cow) are shared by every overlay on the image and never go
// back. Each inode's data is dropped under its lock, so a second visit
// (a hard link, a second Release) gives back nothing. The filesystem
// must not be read afterwards: its files read as empty.
func (fs *FS) Release() int {
	var clones []*Inode
	fs.ovMu.Lock()
	fs.eachCloneLocked(func(c *Inode) { clones = append(clones, c) })
	fs.ovMu.Unlock()
	if len(clones) == 0 {
		clones = append(clones, fs.Root()) // a filesystem never frozen
	}
	n := 0
	put := func(ip *Inode) {
		if ip.typ == sys.S_IFREG {
			ip.mu.Lock()
			if ip.putLocked() {
				n++
			}
			ip.mu.Unlock()
		}
	}
	// walk visits dir's entries made at this layer and descends into the
	// directories among them; clones are visited from the index.
	var walk func(dir *Inode)
	walk = func(dir *Inode) {
		for _, e := range dir.names().m {
			if fs.owns(e) && fs.cloneOf(e.Ino) != e {
				put(e)
				if e.IsDir() {
					walk(e)
				}
			}
		}
	}
	for _, c := range clones {
		put(c)
		if c.IsDir() {
			walk(c)
		}
	}
	return n
}

// writable is called by every mutator on each inode it is about to
// change: it panics on an image inode, which every overlay on the image
// shares, and records that fs changed since its last freeze.
func (ip *Inode) writable() {
	fs := ip.fs
	if !fs.owns(ip) {
		panic(fmt.Sprintf("vfs: mutation of image inode %d", ip.Ino))
	}
	if !fs.changed.Load() {
		fs.changed.Store(true)
	}
}

// cloneIndex maps an image inode number to fs's clone of it. Numbers
// below the dense bound (denseClones) are a slice by number, which grows
// by doubling under ovMu and is published whole, so a reader takes no
// lock: one holding an outgrown index may miss a newer clone, and then
// takes reach's locked path. Numbers past the bound, which only a sparse
// image (a checkpoint with outlying numbers) holds, go to a map under
// ovMu, so the index costs memory in proportion to the clones it holds,
// never to the largest number it reaches.
type cloneIndex struct {
	c []atomic.Pointer[Inode]
}

// denseClones bounds the numbers the index keeps by slot: twice the
// image's inode count, plus headroom for a small tree. Every number of an
// image whose allocator has not run past that bound, as in a booted or
// forked world that freed no more inodes than it holds, is within it.
// Caller holds ovMu.
func (fs *FS) denseClones() int {
	return int(2*fs.img.ninodes + 64)
}

// cloneOf returns fs's clone of image inode number ino if the dense
// index holds one, without a lock; nil means the caller must look again
// under ovMu (cloneOfLocked).
func (fs *FS) cloneOf(ino uint32) *Inode {
	if ix := fs.clones.Load(); ix != nil && int(ino) < len(ix.c) {
		return ix.c[ino].Load()
	}
	return nil
}

// cloneOfLocked returns fs's clone of image inode number ino, or nil.
// Caller holds ovMu.
func (fs *FS) cloneOfLocked(ino uint32) *Inode {
	if c := fs.cloneOf(ino); c != nil {
		return c
	}
	return fs.sparse[ino]
}

// addClone records c as fs's clone of its number. Caller holds ovMu.
func (fs *FS) addClone(c *Inode) {
	if int(c.Ino) >= fs.denseClones() {
		if fs.sparse == nil {
			fs.sparse = make(map[uint32]*Inode)
		}
		fs.sparse[c.Ino] = c
		return
	}
	ix := fs.clones.Load()
	if ix == nil {
		ix = &cloneIndex{}
	}
	if int(c.Ino) >= len(ix.c) {
		grown := &cloneIndex{c: make([]atomic.Pointer[Inode], min(max(2*len(ix.c), 8, int(c.Ino)+1), fs.denseClones()))}
		for i := range ix.c {
			grown.c[i].Store(ix.c[i].Load())
		}
		fs.clones.Store(grown)
		ix = grown
	}
	ix.c[c.Ino].Store(c)
}

// eachCloneLocked calls f with every clone fs holds. Caller holds ovMu.
func (fs *FS) eachCloneLocked(f func(c *Inode)) {
	if ix := fs.clones.Load(); ix != nil {
		for i := range ix.c {
			if c := ix.c[i].Load(); c != nil {
				f(c)
			}
		}
	}
	for _, c := range fs.sparse {
		f(c)
	}
}

// reach returns fs's own inode for ip, which a directory entry may still
// give as an image inode: the clone of ip's number, made on first reach.
func (fs *FS) reach(ip *Inode) *Inode {
	if ip == nil || fs.owns(ip) {
		return ip
	}
	c, _ := fs.reachImage(ip)
	return c
}

// reachImage is reach for an image inode; first reports that this call
// made the clone. Only a first reach takes ovMu.
func (fs *FS) reachImage(ip *Inode) (c *Inode, first bool) {
	if c := fs.cloneOf(ip.Ino); c != nil {
		return c, false
	}
	fs.ovMu.Lock()
	defer fs.ovMu.Unlock()
	first = fs.cloneOfLocked(ip.Ino) == nil
	return fs.reachLocked(ip), first
}

// reachLocked is reach with ovMu held.
func (fs *FS) reachLocked(ip *Inode) *Inode {
	if c := fs.cloneOfLocked(ip.Ino); c != nil {
		return c
	}
	src := fs.img.version(ip)
	c := fs.clone(src)
	fs.addClone(c) // before the parent: the root is its own parent
	if pp := src.parentPtr(); pp != nil && c.IsDir() {
		c.setParent(fs.reachLocked(pp))
	}
	return c
}

// peek returns the version of ip an overlay walk sees — fs's clone if it
// reached ip's number, the image's version otherwise — without cloning.
func (fs *FS) peek(ip *Inode) *Inode {
	if ip == nil || fs.owns(ip) {
		return ip
	}
	if c := fs.cloneOf(ip.Ino); c != nil {
		return c
	}
	fs.ovMu.Lock()
	defer fs.ovMu.Unlock()
	if c := fs.cloneOfLocked(ip.Ino); c != nil {
		return c
	}
	return fs.img.version(ip)
}

// clone copies the image inode src into fs, at fs's current layer. A
// device inode binds to fs's driver for its rdev.
func (fs *FS) clone(src *Inode) *Inode {
	src.mu.RLock()
	c := &Inode{
		fs:    fs,
		layer: fs.layer.Load(),
		Ino:   src.Ino,
		typ:   src.typ,
		Mode:  src.Mode,
		Nlink: src.Nlink,
		UID:   src.UID,
		GID:   src.GID,
		Rdev:  src.Rdev,
		Atime: src.Atime,
		Mtime: src.Mtime,
		Ctime: src.Ctime,
		link:  src.link,
	}
	switch src.typ {
	case sys.S_IFREG:
		c.data, c.cow = src.data, true
	case sys.S_IFDIR:
		c.tab.Store(src.names())
	case sys.S_IFCHR:
		c.dev = src.dev
		if src.fs != fs {
			c.dev = fs.driver(src.Rdev)
		}
	}
	c.attrs.Store(src.attrs.Load())
	src.mu.RUnlock()
	return c
}

// bind records dev as the filesystem's driver for rdev.
func (fs *FS) bind(rdev uint32, dev Device) {
	fs.ovMu.Lock()
	defer fs.ovMu.Unlock()
	for i, b := range fs.drivers {
		if b.rdev == rdev {
			fs.drivers[i].dev = dev
			return
		}
	}
	fs.drivers = append(fs.drivers, binding{rdev, dev})
}

// driver returns the filesystem's driver for rdev. Caller holds ovMu.
func (fs *FS) driver(rdev uint32) Device {
	for _, b := range fs.drivers {
		if b.rdev == rdev {
			return b.dev
		}
	}
	return nil
}

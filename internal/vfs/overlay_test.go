package vfs

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"interpose/internal/sys"
)

// The copy-on-reach invariants of fork.go, one test each.

// TestForkPreservesInodeNumbers: every path has the same inode number in
// a fork as in its parent, reached or read through.
func TestForkPreservesInodeNumbers(t *testing.T) {
	fs := buildForkFS(t)
	want := map[string]uint32{}
	fs.walkTree(func(path string, ip *Inode) { want[path] = ip.Ino })
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for path, ino := range want {
		ip, e := child.Lookup(child.Root(), path, root0, false)
		if e != sys.OK || ip.Ino != ino || ip.fs != child {
			t.Fatalf("%s: ino %d in fs %p, want %d in the child", path, ip.Ino, ip.fs, ino)
		}
	}
	if _, err := child.Create(child.Root(), "new", 0o644, root0); err != sys.OK {
		t.Fatal(err)
	}
	if ip := mustLookup(t, child, "/new"); ip.Ino != fs.nextIno.Load() {
		t.Fatalf("child allocated ino %d, want the image's next %d", ip.Ino, fs.nextIno.Load())
	}
}

// TestForkHardLinkClonedOnce: the two names of a hard link reach one
// clone, and a fork of an overlay that changed the file through one name
// sees the change through the other, whose directory it never reached.
func TestForkHardLinkClonedOnce(t *testing.T) {
	fs := New(nil)
	a, _ := fs.Mkdir(fs.Root(), "a", 0o755, root0)
	b, _ := fs.Mkdir(fs.Root(), "b", 0o755, root0)
	f, _ := fs.Create(a, "f", 0o644, root0)
	f.WriteAt([]byte("one"), 0, 0)
	if e := fs.Link(b, "g", f, root0); e != sys.OK {
		t.Fatal(e)
	}
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cf, cg := mustLookup(t, child, "/a/f"), mustLookup(t, child, "/b/g")
	if cf != cg {
		t.Fatal("a hard link was cloned twice")
	}
	if _, e := cf.WriteAt([]byte("two"), 0, 0); e != sys.OK {
		t.Fatal(e)
	}
	if cf.Stat().Nlink != 2 {
		t.Fatalf("clone nlink %d, want 2", cf.Stat().Nlink)
	}
	mustClean(t, "child", child)

	// Reach the file in a fresh fork through /a only, change it, and fork
	// that: /b was never reached, so its image entry names the old file.
	c1, _ := fs.Fork(nil, nil)
	if _, e := mustLookup(t, c1, "/a/f").WriteAt([]byte("new"), 0, 0); e != sys.OK {
		t.Fatal(e)
	}
	c2, err := c1.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(mustLookup(t, c2, "/b/g").Bytes()); got != "new" {
		t.Fatalf("grandchild reads %q through the other link, want %q", got, "new")
	}
	if mustLookup(t, c2, "/b/g") != mustLookup(t, c2, "/a/f") {
		t.Fatal("grandchild cloned the hard link twice")
	}
	if c1.StateHash() != c2.StateHash() {
		t.Fatal("grandchild differs from its parent")
	}
	mustClean(t, "grandchild", c2)
}

// TestForkDotDotResolvesToClones: ".." out of a reached directory lands
// on the child's clone of its parent, never on the image.
func TestForkDotDotResolvesToClones(t *testing.T) {
	fs := build(t)
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := mustLookup(t, child, "/a/b")
	up, e := child.Lookup(b, "..", root0, true)
	if e != sys.OK {
		t.Fatal(e)
	}
	if up != mustLookup(t, child, "/a") || up.fs != child || !child.owns(up) {
		t.Fatal(`".." resolved outside the child`)
	}
	if b.parentPtr() != up {
		t.Fatal("a directory clone's parent pointer is not the parent's clone")
	}
	if up2, _ := child.Lookup(b, "../b/..", root0, true); up2 != up {
		t.Fatal(`".." walk through a reached name left the child`)
	}
	if r, _ := child.Lookup(up, "../..", root0, true); r != child.Root() {
		t.Fatal(`".." from the top does not reach the child's root`)
	}
}

// TestForkDeviceBinding: a device node created in a fork binds to that
// fork's driver, its own fork needs a driver for it, and a missing one
// fails the fork by rdev.
func TestForkDeviceBinding(t *testing.T) {
	fs := New(nil)
	dev, _ := fs.Mkdir(fs.Root(), "dev", 0o755, root0)
	if _, e := fs.MkDev(dev, "null", 0o666, 0x0103, &nullDevice{}, root0); e != sys.OK {
		t.Fatal(e)
	}
	drv := map[uint32]Device{0x0103: &nullDevice{}}
	resolve := func(rdev uint32) (Device, bool) { d, ok := drv[rdev]; return d, ok }
	child, err := fs.Fork(nil, resolve)
	if err != nil {
		t.Fatal(err)
	}
	cdev := mustLookup(t, child, "/dev")
	if _, e := child.MkDev(cdev, "zero", 0o666, 0x0105, &nullDevice{}, root0); e != sys.OK {
		t.Fatal(e)
	}
	if _, err := child.Fork(nil, resolve); err == nil || !strings.Contains(err.Error(), "1:5") {
		t.Fatalf("fork without a driver for the child's device: %v", err)
	}
	drv[0x0105] = &nullDevice{}
	grand, err := child.Fork(nil, resolve)
	if err != nil {
		t.Fatal(err)
	}
	for path, rdev := range map[string]uint32{"/dev/null": 0x0103, "/dev/zero": 0x0105} {
		if got := mustLookup(t, grand, path).Device(); got != drv[rdev] {
			t.Fatalf("%s: grandchild bound the wrong driver", path)
		}
	}
}

// numClones counts the image inodes fs has cloned.
func numClones(fs *FS) int {
	n := 0
	if ix := fs.clones.Load(); ix != nil {
		for i := range ix.c {
			if ix.c[i].Load() != nil {
				n++
			}
		}
	}
	return n
}

// TestForkSharesDirTableUntilMutation: a directory clone shares its
// image's name table until its first insert or remove; the image, and the
// parent continuing on its own overlay, never see the child's change.
func TestForkSharesDirTableUntilMutation(t *testing.T) {
	fs := build(t)
	img := mustLookup(t, fs, "/a/b") // an image inode once fs forks
	tab := img.names()
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, pb := mustLookup(t, child, "/a/b"), mustLookup(t, fs, "/a/b")
	if b == img || pb == img || b.names() != tab || pb.names() != tab {
		t.Fatal("a directory clone does not share its image's table")
	}
	if _, e := child.Create(b, "new.txt", 0o644, root0); e != sys.OK {
		t.Fatal(e)
	}
	if b.names() == tab || img.names() != tab || pb.names() != tab {
		t.Fatal("the first insert did not give the clone a table of its own")
	}
	if tab.m["new.txt"] != nil || len(tab.order) != 1 {
		t.Fatalf("the image's table changed: %v", tab.order)
	}
	if _, e := fs.Lookup(fs.Root(), "/a/b/new.txt", root0, true); e != sys.ENOENT {
		t.Fatalf("the parent sees the child's create: %v", e)
	}
	mustLookup(t, child, "/a/b/new.txt")
	if e := child.Unlink(b, "c.txt", root0); e != sys.OK {
		t.Fatal(e)
	}
	mustLookup(t, fs, "/a/b/c.txt")
	mustClean(t, "child", child)
	mustClean(t, "parent", fs)
}

// TestForkReadThroughClonesNothing: StateHash, Check and WriteSnapshot on
// a fresh fork agree with the parent and clone nothing past the root.
func TestForkReadThroughClonesNothing(t *testing.T) {
	fs := buildForkFS(t)
	want := fs.StateHash()
	var snap bytes.Buffer
	if err := fs.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if child.StateHash() != want {
		t.Fatal("fork's StateHash differs from its parent's")
	}
	mustClean(t, "fork", child)
	var csnap bytes.Buffer
	if err := child.WriteSnapshot(&csnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csnap.Bytes(), snap.Bytes()) {
		t.Fatal("fork's snapshot differs from its parent's")
	}
	if n := numClones(child); n != 1 {
		t.Fatalf("read-through cloned %d inodes, want only the root", n)
	}
	// The parent reads through its own overlay the same way.
	if fs.StateHash() != want || numClones(fs) != 1 {
		t.Fatalf("parent's read-through moved: %d clones", numClones(fs))
	}
}

// TestForkImageMutationPanics: an inode handle from before a fork is an
// image inode afterwards, and every mutator refuses it before touching
// anything.
func TestForkImageMutationPanics(t *testing.T) {
	fs := buildForkFS(t)
	f := mustLookup(t, fs, "/data/f00")
	data := mustLookup(t, fs, "/data")
	if _, err := fs.Fork(nil, nil); err != nil {
		t.Fatal(err)
	}
	want := fs.StateHash()
	for name, op := range map[string]func(){
		"write":    func() { f.WriteAt([]byte("x"), 0, 0) },
		"read":     func() { f.ReadAt(make([]byte, 1), 0) },
		"truncate": func() { f.Truncate(0) },
		"chmod":    func() { fs.Chmod(f, 0o600, root0) },
		"chown":    func() { fs.Chown(f, 1, 1, root0) },
		"utimes":   func() { fs.Utimes(f, f.Atime, f.Mtime, root0) },
		"create":   func() { fs.Create(data, "x", 0o644, root0) },
		"mkdir":    func() { fs.Mkdir(data, "x", 0o755, root0) },
		"link":     func() { fs.Link(data, "x", mustLookup(t, fs, "/data/f01"), root0) },
		"unlink":   func() { fs.Unlink(data, "f01", root0) },
		"rmdir":    func() { fs.Rmdir(data, "x", root0) },
		"rename":   func() { fs.Rename(data, "f01", data, "x", root0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an image inode did not panic", name)
				}
			}()
			op()
		}()
	}
	if fs.StateHash() != want {
		t.Fatal("a refused mutation changed the image")
	}
	if !bytes.Equal(f.data, pattern(0, 512)) {
		t.Fatal("a refused write reached the image's array")
	}
}

// TestForkConcurrentFirstForksOneImage: racing first forks of one parent
// freeze it once and share that image; a fork after a change freezes a
// new one, and the journal watermark rides along.
func TestForkConcurrentFirstForksOneImage(t *testing.T) {
	fs := buildForkFS(t)
	fs.bumpSeq(41)
	const n = 8
	kids := make([]*FS, n)
	var wg sync.WaitGroup
	for i := range kids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := fs.Fork(nil, nil)
			if err != nil {
				t.Error(err)
				return
			}
			kids[i] = c
		}(i)
	}
	wg.Wait()
	if fs.layer.Load() != 1 {
		t.Fatalf("parent froze %d times, want 1", fs.layer.Load())
	}
	for _, c := range kids {
		if c == nil || c.img != fs.img || c.JournalSeq() != 41 {
			t.Fatal("a racing fork did not share the one image and watermark")
		}
	}
	if _, e := fs.Create(fs.Root(), "after", 0o644, root0); e != sys.OK {
		t.Fatal(e)
	}
	c, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.img == kids[0].img || fs.layer.Load() != 2 {
		t.Fatal("a fork after a change reused the stale image")
	}
	if _, e := c.Lookup(c.Root(), "/after", root0, true); e != sys.OK {
		t.Fatal("the new image lacks the parent's change")
	}
	if _, e := kids[0].Lookup(kids[0].Root(), "/after", root0, true); e != sys.ENOENT {
		t.Fatal("the parent's change reached an earlier fork")
	}
}

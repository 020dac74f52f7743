package vfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"interpose/internal/sys"
)

// forkFixture builds a tree with stormFiles regular files under /data,
// each holding pattern(0), plus the usual /a tree from build.
const stormFiles = 16

func pattern(tag, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(tag*31 + i)
	}
	return p
}

func buildForkFS(t *testing.T) *FS {
	t.Helper()
	fs := build(t)
	data, err := fs.Mkdir(fs.Root(), "data", 0o755, root0)
	if err != sys.OK {
		t.Fatal(err)
	}
	for i := 0; i < stormFiles; i++ {
		f, err := fs.Create(data, fmt.Sprintf("f%02d", i), 0o644, root0)
		if err != sys.OK {
			t.Fatal(err)
		}
		if _, werr := f.WriteAt(pattern(0, 512), 0, 0); werr != sys.OK {
			t.Fatal(werr)
		}
	}
	return fs
}

func mustLookup(t *testing.T, fs *FS, path string) *Inode {
	t.Helper()
	ip, err := fs.Lookup(fs.Root(), path, root0, true)
	if err != sys.OK {
		t.Fatalf("lookup %s: %v", path, err)
	}
	return ip
}

func mustClean(t *testing.T, label string, fs *FS) {
	t.Helper()
	if bad := fs.Check(); len(bad) != 0 {
		t.Fatalf("%s: fsck: %v", label, bad)
	}
}

// TestForkSharesUntilWrite pins the data contract: after a fork the
// child's clone and the parent's own clone of a file share the image's
// data array; the first write on either side copies out just that side,
// and the image's bytes never move.
func TestForkSharesUntilWrite(t *testing.T) {
	fs := buildForkFS(t)
	img := mustLookup(t, fs, "/data/f00") // becomes an image inode
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	pf := mustLookup(t, fs, "/data/f00")
	cf := mustLookup(t, child, "/data/f00")
	if pf == img || cf == img || pf == cf {
		t.Fatal("a lookup after the fork returned an image inode")
	}
	if &pf.data[0] != &img.data[0] || &cf.data[0] != &img.data[0] {
		t.Fatal("fork did not share the image's data array")
	}
	if !pf.cow || !cf.cow {
		t.Fatal("clones not marked copy-on-write")
	}

	// The child's first write copies out; the parent still shares.
	if _, werr := cf.WriteAt([]byte("child"), 0, 0); werr != sys.OK {
		t.Fatal(werr)
	}
	if &cf.data[0] == &img.data[0] || cf.cow {
		t.Fatal("child write did not copy out of the image's array")
	}
	if &pf.data[0] != &img.data[0] {
		t.Fatal("child write unshared the parent")
	}

	// The parent's first write copies out too; its next writes in place.
	if _, werr := pf.WriteAt([]byte("parent"), 0, 0); werr != sys.OK {
		t.Fatal(werr)
	}
	if &pf.data[0] == &img.data[0] || pf.cow {
		t.Fatal("parent write did not copy out of the image's array")
	}
	before := &pf.data[0]
	if _, werr := pf.WriteAt([]byte("again!"), 0, 0); werr != sys.OK {
		t.Fatal(werr)
	}
	if &pf.data[0] != before {
		t.Fatal("owned array copied again")
	}

	if got := pf.Bytes()[:6]; !bytes.Equal(got, []byte("again!")) {
		t.Fatalf("parent bytes = %q", got)
	}
	if got := cf.Bytes()[:5]; !bytes.Equal(got, []byte("child")) {
		t.Fatalf("child bytes = %q", got)
	}
	if !bytes.Equal(img.data, pattern(0, 512)) {
		t.Fatal("image bytes changed")
	}
}

// TestForkTruncate pins the truncate half of the contract: a shrink is
// a reslice and keeps sharing (the surviving bytes never change); a
// growing truncate reallocates and drops the share.
func TestForkTruncate(t *testing.T) {
	fs := buildForkFS(t)
	img := mustLookup(t, fs, "/data/f00")
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pf := mustLookup(t, fs, "/data/f00")
	cf := mustLookup(t, child, "/data/f00")

	if serr := cf.Truncate(64); serr != sys.OK {
		t.Fatal(serr)
	}
	if &img.data[0] != &cf.data[0] || !cf.cow {
		t.Fatal("shrink truncate broke the share")
	}

	if serr := cf.Truncate(1024); serr != sys.OK {
		t.Fatal(serr)
	}
	if &img.data[0] == &cf.data[0] || cf.cow {
		t.Fatal("growing truncate kept the image's array")
	}
	// Parent and image bytes must be untouched; the child's surviving
	// prefix matches, and its grown tail is zero.
	if !bytes.Equal(pf.Bytes(), pattern(0, 512)) || !bytes.Equal(img.data, pattern(0, 512)) {
		t.Fatal("parent bytes changed under child truncate")
	}
	cb := cf.Bytes()
	if !bytes.Equal(cb[:64], pattern(0, 512)[:64]) {
		t.Fatal("child prefix diverged without a write")
	}
	for i := 64; i < 1024; i++ {
		if cb[i] != 0 {
			t.Fatalf("child grown tail not zeroed at %d", i)
		}
	}
}

// TestForkFsckClean runs the recovery fsck on parent and child after a
// fork and again after divergent mutations on both sides: structure,
// link counts, caches, and the inode census must all hold in each world
// independently.
func TestForkFsckClean(t *testing.T) {
	fs := buildForkFS(t)
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, "parent after fork", fs)
	mustClean(t, "child after fork", child)

	// Diverge: new file + unlink in the child, write + rename in the
	// parent.
	cdata := mustLookup(t, child, "/data")
	if _, cerr := child.Create(cdata, "new", 0o644, root0); cerr != sys.OK {
		t.Fatal(cerr)
	}
	if cerr := child.Unlink(cdata, "f01", root0); cerr != sys.OK {
		t.Fatal(cerr)
	}
	pf := mustLookup(t, fs, "/data/f02")
	if _, werr := pf.WriteAt(pattern(7, 2048), 0, 0); werr != sys.OK {
		t.Fatal(werr)
	}
	pdata := mustLookup(t, fs, "/data")
	if rerr := fs.Rename(pdata, "f03", pdata, "renamed", root0); rerr != sys.OK {
		t.Fatal(rerr)
	}

	mustClean(t, "parent after divergence", fs)
	mustClean(t, "child after divergence", child)

	// The child never saw the parent's divergence and vice versa.
	if _, lerr := child.Lookup(child.Root(), "/data/renamed", root0, true); lerr != sys.ENOENT {
		t.Fatalf("parent rename leaked into child: %v", lerr)
	}
	if _, lerr := fs.Lookup(fs.Root(), "/data/new", root0, true); lerr != sys.ENOENT {
		t.Fatalf("child create leaked into parent: %v", lerr)
	}
}

// TestForkDeviceNodes: device inodes must resolve against the child's
// driver table, and a fork with no resolver for a device tree fails
// rather than aliasing the parent's drivers.
func TestForkDeviceNodes(t *testing.T) {
	fs := build(t)
	devdir, err := fs.Mkdir(fs.Root(), "dev", 0o755, root0)
	if err != sys.OK {
		t.Fatal(err)
	}
	parentDev := &nullDevice{}
	if _, err := fs.MkDev(devdir, "null", 0o666, 0x0103, parentDev, root0); err != sys.OK {
		t.Fatal(err)
	}

	if _, ferr := fs.Fork(nil, nil); ferr == nil {
		t.Fatal("fork with unresolvable device nodes succeeded")
	}

	childDev := &nullDevice{}
	child, ferr := fs.Fork(nil, func(rdev uint32) (Device, bool) {
		if rdev == 0x0103 {
			return childDev, true
		}
		return nil, false
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	got := mustLookup(t, child, "/dev/null")
	if got.dev != Device(childDev) {
		t.Fatal("child device inode kept the parent's driver")
	}
	mustClean(t, "child with devices", child)
}

type nullDevice struct{}

func (*nullDevice) Read(p []byte, off int64) (int, sys.Errno)             { return 0, sys.OK }
func (*nullDevice) Write(p []byte, off int64) (int, sys.Errno)            { return len(p), sys.OK }
func (*nullDevice) Ioctl(req sys.Word, arg sys.Word, c sys.Ctx) sys.Errno { return sys.ENOTTY }

// TestForkStorm is the -race storm: many goroutines fork the same
// parent at once (the first freezes it, the rest reuse its image), each
// writes its own byte pattern into every file of its fork and verifies
// it holds exactly that pattern — while the parent, continuing on its
// own overlay of the same image, keeps mutating one file the whole time.
// Byte-level isolation between siblings and the parent must hold, and
// every world must end fsck-clean.
func TestForkStorm(t *testing.T) {
	const forks = 8
	fs := buildForkFS(t)

	children := make([]*FS, forks)
	var forked, wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < forks; g++ {
		forked.Add(1)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			child, err := fs.Fork(nil, nil)
			forked.Done()
			if err != nil {
				t.Errorf("fork %d: %v", g, err)
				return
			}
			children[g] = child
			<-start
			want := pattern(g+1, 512)
			for i := 0; i < stormFiles; i++ {
				f := mustLookup(t, child, fmt.Sprintf("/data/f%02d", i))
				if _, werr := f.WriteAt(want, 0, 0); werr != sys.OK {
					t.Errorf("fork %d: write f%02d: %v", g, i, werr)
					return
				}
			}
			for i := 0; i < stormFiles; i++ {
				f := mustLookup(t, child, fmt.Sprintf("/data/f%02d", i))
				if !bytes.Equal(f.Bytes(), want) {
					t.Errorf("fork %d: f%02d bytes diverged from own pattern", g, i)
					return
				}
			}
		}(g)
	}
	forked.Wait()

	// Parent-side writer: hammers f00 on the parent's overlay while the
	// children reach and copy out of the image it shares with them.
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		pf := mustLookup(t, fs, "/data/f00")
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, werr := pf.WriteAt(pattern(i%250, 512), 0, 0); werr != sys.OK {
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	close(stop)
	writer.Wait()

	// The parent's untouched files still hold the original pattern
	// (f00 belongs to the writer goroutine and is checked for
	// consistency, not content).
	for i := 1; i < stormFiles; i++ {
		f := mustLookup(t, fs, fmt.Sprintf("/data/f%02d", i))
		if !bytes.Equal(f.Bytes(), pattern(0, 512)) {
			t.Fatalf("parent f%02d mutated by a fork", i)
		}
	}
	mustClean(t, "parent after storm", fs)
	for g, child := range children {
		if child == nil {
			continue
		}
		mustClean(t, fmt.Sprintf("fork %d after storm", g), child)
		// And siblings still differ from each other byte-for-byte.
		f := mustLookup(t, child, "/data/f01")
		if !bytes.Equal(f.Bytes(), pattern(g+1, 512)) {
			t.Fatalf("fork %d: sibling pattern bled through", g)
		}
	}
}

// TestForkOfFork: a fork of a changed fork freezes the child's overlay
// as a new image over the first; each generation sees its own writes
// and none of its descendants', and every world's first write copies
// out only its own file.
func TestForkOfFork(t *testing.T) {
	fs := buildForkFS(t)
	c1, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f1 := mustLookup(t, c1, "/data/f05")
	if _, werr := f1.WriteAt([]byte("c1"), 0, 0); werr != sys.OK {
		t.Fatal(werr)
	}
	c2, err := c1.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c2.img == fs.img || c2.img != c1.img {
		t.Fatal("a fork of a changed fork did not freeze a new image")
	}
	if got := mustLookup(t, c2, "/data/f05").Bytes()[:2]; string(got) != "c1" {
		t.Fatalf("grandchild reads %q, want its parent's write", got)
	}
	f2 := mustLookup(t, c2, "/data/f05")
	if _, werr := f2.WriteAt([]byte("c2"), 0, 0); werr != sys.OK {
		t.Fatal(werr)
	}
	for _, w := range []struct {
		fs   *FS
		want string
	}{{fs, string(pattern(0, 2))}, {c1, "c1"}, {c2, "c2"}} {
		if got := mustLookup(t, w.fs, "/data/f05").Bytes()[:2]; string(got) != w.want {
			t.Fatalf("world reads %q, want %q", got, w.want)
		}
		mustClean(t, "fork chain", w.fs)
	}
	// An unchanged fork forks its own image again.
	c3, err := c2.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c4, err := c3.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c4.img != c3.img {
		t.Fatal("a fork of an unchanged fork froze a new image")
	}
}

// TestForkNeverSeesAppends pins that a shared array is never extended in
// place: parent and child share the spare capacity behind a file's data,
// so an append on one side must not land where the other side's next
// append, or its length, can reach it. A file cut down to one byte
// (spare capacity, almost no bytes) shares just as much; a truncate to
// zero would give its array back to the allocator instead.
func TestForkNeverSeesAppends(t *testing.T) {
	fs := New(nil)
	f, _ := fs.Create(fs.Root(), "f", 0o644, root0)
	g, _ := fs.Create(fs.Root(), "g", 0o644, root0)
	for off := int64(0); off < 3*4096; off += 4096 { // leave spare capacity
		f.WriteAt(pattern(1, 4096), off, 0)
		g.WriteAt(pattern(1, 4096), off, 0)
	}
	g.Truncate(1)
	if cap(f.data) == len(f.data) || cap(g.data) <= 1 {
		t.Fatal("fixture has no spare capacity")
	}
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/f", "/g"} {
		pf, cf := mustLookup(t, fs, name), mustLookup(t, child, name)
		size := pf.Size()
		if _, e := pf.WriteAt([]byte("parent"), size, 0); e != sys.OK {
			t.Fatal(e)
		}
		if _, e := cf.WriteAt([]byte("child!"), size, 0); e != sys.OK {
			t.Fatal(e)
		}
		if got := pf.Bytes()[size:]; string(got) != "parent" {
			t.Fatalf("%s: parent tail = %q", name, got)
		}
		if got := cf.Bytes()[size:]; string(got) != "child!" {
			t.Fatalf("%s: child tail = %q", name, got)
		}
	}
	mustClean(t, "parent", fs)
	mustClean(t, "child", child)
}

// TestReleaseLeavesImageIntact: an overlay's Release gives back exactly
// the arrays its own layer owns, each once — a hard link is visited
// twice — and leaves the frozen image, the parent continuing on its own
// overlay, and a sibling overlay reading as before.
func TestReleaseLeavesImageIntact(t *testing.T) {
	fs := New(nil)
	a, _ := fs.Mkdir(fs.Root(), "a", 0o755, root0)
	f, _ := fs.Create(a, "f", 0o644, root0)
	f.WriteAt(pattern(1, 3*4096), 0, 0)
	g, _ := fs.Create(a, "g", 0o644, root0)
	g.WriteAt(pattern(2, 100), 0, 0)
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	imgHash, parentHash, sibHash := imageHash(child.img), fs.StateHash(), sibling.StateHash()

	// The child extends an image file (a copy out into a class array),
	// writes two new files of class sizes, links one of them and reads
	// an image file it never writes.
	cf := mustLookup(t, child, "/a/f")
	cf.WriteAt(pattern(3, 10), 3*4096, 0)
	n, _ := child.Create(mustLookup(t, child, "/a"), "n", 0o644, root0)
	n.WriteAt(pattern(4, 16384), 0, 0)
	x, _ := child.Mkdir(child.Root(), "x", 0o755, root0)
	y, _ := child.Create(x, "y", 0o644, root0)
	y.WriteAt(pattern(5, 4096), 0, 0)
	if e := child.Link(x, "l", n, root0); e != sys.OK {
		t.Fatal(e)
	}
	mustLookup(t, child, "/a/g").Bytes()

	if got := child.Release(); got != 3 {
		t.Fatalf("Release gave back %d arrays, want 3 (/a/f, /a/n, /x/y)", got)
	}
	if got := child.Release(); got != 0 {
		t.Fatalf("a second Release gave back %d arrays", got)
	}
	if imageHash(child.img) != imgHash {
		t.Fatal("the image changed after an overlay on it released")
	}
	if fs.StateHash() != parentHash || sibling.StateHash() != sibHash {
		t.Fatal("the parent or a sibling overlay changed after an overlay released")
	}
	for _, w := range []*FS{fs, sibling} {
		if got := mustLookup(t, w, "/a/f").Bytes(); !bytes.Equal(got, pattern(1, 3*4096)) {
			t.Fatal("/a/f changed after an overlay released")
		}
		if got := mustLookup(t, w, "/a/g").Bytes(); !bytes.Equal(got, pattern(2, 100)) {
			t.Fatal("/a/g changed after an overlay released")
		}
	}
}

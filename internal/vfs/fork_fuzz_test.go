package vfs

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"interpose/internal/sys"
)

// FuzzForkOverlay is a differential test of copy-on-reach forking. The
// input decodes into a sequence of filesystem operations and forks over a
// small tree. Every world is kept twice: as an overlay fork, and as a
// reference copy made by a WriteSnapshot/ReadSnapshot round trip of the
// same parent, which copies every inode eagerly. Each operation must give
// both copies the same result; at the end both must have equal StateHash
// and file contents and a clean Check, and every image a fork froze must
// still hash as it did when it was frozen. Files are also cut to zero and
// extended across the allocator's buffer classes, and an overlay may be
// released (its arrays given back) and dropped: every image and every
// other overlay must then still hash as before.
func FuzzForkOverlay(f *testing.F) {
	f.Add([]byte{0, 10, 1, 1, 16, 0, 5, 9})
	f.Add([]byte{0, 10, 1, 5, 6, 28, 0, 0, 1, 10, 2, 9, 26, 0, 0, 0})
	f.Add([]byte{0, 10, 1, 12, 1, 0, 3, 1, 1, 12, 1, 0, 5, 0, 1, 11, 1, 0, 0, 0, 0, 13})
	f.Fuzz(func(t *testing.T, in []byte) {
		d := &forkOps{in: in}
		ov := forkFuzzTree(t)
		ref, err := roundTrip(ov)
		if err != nil {
			t.Fatal(err)
		}
		worlds := []fuzzWorld{{ov, ref}}
		type frozen struct {
			img  *image
			hash [32]byte
		}
		var images []frozen
		for step := 0; step < 64 && !d.done(); step++ {
			wi := d.next() % len(worlds)
			w := worlds[wi]
			op := d.next() % 14
			if op == 13 { // release an overlay and drop it
				if len(worlds) == 1 {
					continue
				}
				w.ov.Release()
				worlds = slices.Delete(worlds, wi, wi+1)
				for i, o := range worlds {
					if o.ov.StateHash() != o.ref.StateHash() {
						t.Fatalf("step %d: world %d differs from its reference after a release", step, i)
					}
				}
				for i, fz := range images {
					if imageHash(fz.img) != fz.hash {
						t.Fatalf("step %d: image %d changed after a release", step, i)
					}
				}
				continue
			}
			if op == 10 { // fork
				if len(worlds) == 6 {
					continue
				}
				want := w.ov.StateHash()
				child, err := w.ov.Fork(nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				rc, err := roundTrip(w.ov)
				if err != nil {
					t.Fatal(err)
				}
				if rc.StateHash() != w.ref.StateHash() {
					t.Fatalf("step %d: snapshot of the overlay differs from the reference", step)
				}
				images = append(images, frozen{child.img, want})
				worlds = append(worlds, fuzzWorld{child, rc})
				continue
			}
			args := [4]int{d.next(), d.next(), d.next(), d.next()}
			got, want := applyFuzzOp(w.ov, op, args), applyFuzzOp(w.ref, op, args)
			if got != want {
				t.Fatalf("step %d: op %d %v: overlay %q, reference %q", step, op, args, got, want)
			}
		}
		for i, w := range worlds {
			if w.ov.StateHash() != w.ref.StateHash() {
				t.Fatalf("world %d: StateHash differs from the reference", i)
			}
			for _, p := range fuzzPaths() {
				if got, want := readFuzzPath(w.ov, p), readFuzzPath(w.ref, p); got != want {
					t.Fatalf("world %d: %s reads %q, reference %q", i, p, got, want)
				}
			}
			if bad := w.ov.Check(); len(bad) != 0 {
				t.Fatalf("world %d: overlay fsck: %v", i, bad)
			}
			if bad := w.ref.Check(); len(bad) != 0 {
				t.Fatalf("world %d: reference fsck: %v", i, bad)
			}
		}
		for i, fz := range images {
			if imageHash(fz.img) != fz.hash {
				t.Fatalf("image %d changed after it was frozen", i)
			}
		}
	})
}

type fuzzWorld struct{ ov, ref *FS }

// forkOps reads operation bytes; an exhausted input reads as zero.
type forkOps struct {
	in  []byte
	pos int
}

func (d *forkOps) done() bool { return d.pos >= len(d.in) }

func (d *forkOps) next() int {
	if d.done() {
		return 0
	}
	d.pos++
	return int(d.in[d.pos-1])
}

var (
	fuzzDirs  = []string{"", "/a", "/a/b", "/d", "/a/b/.."}
	fuzzNames = []string{"a", "b", "d", "f", "g", "h"}
)

func fuzzPath(n int) string {
	return fuzzDirs[n%len(fuzzDirs)] + "/" + fuzzNames[n/len(fuzzDirs)%len(fuzzNames)]
}

func fuzzPaths() []string {
	var ps []string
	for i := 0; i < len(fuzzDirs)*len(fuzzNames); i++ {
		ps = append(ps, fuzzPath(i))
	}
	return ps
}

// forkFuzzTree is the fuzz parent: two directory levels, files with
// data, a hard link across directories and a symlink.
func forkFuzzTree(t *testing.T) *FS {
	fs := New(nil)
	a, _ := fs.Mkdir(fs.Root(), "a", 0o755, root0)
	b, _ := fs.Mkdir(a, "b", 0o755, root0)
	d, _ := fs.Mkdir(fs.Root(), "d", 0o755, root0)
	f, _ := fs.Create(a, "f", 0o644, root0)
	f.WriteAt(pattern(1, 100), 0, 0)
	g, _ := fs.Create(b, "g", 0o644, root0)
	g.WriteAt(pattern(2, 40), 0, 0)
	if e := fs.Link(d, "h", f, root0); e != sys.OK {
		t.Fatal(e)
	}
	fs.Symlink(d, "b", "/a/b", root0)
	return fs
}

func roundTrip(fs *FS) (*FS, error) {
	var buf bytes.Buffer
	if err := fs.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return ReadSnapshot(&buf)
}

// applyFuzzOp runs one decoded operation and describes its result.
func applyFuzzOp(fs *FS, op int, a [4]int) string {
	p, q := fuzzPath(a[0]), fuzzPath(a[1])
	parent := func(path string) (*Inode, string, sys.Errno) {
		dir, name, _, e := fs.LookupParent(fs.Root(), path, root0)
		return dir, name, e
	}
	switch op {
	case 0: // create
		dir, name, e := parent(p)
		if e != sys.OK {
			return e.Error()
		}
		_, e = fs.Create(dir, name, 0o644, root0)
		return fmt.Sprint(e)
	case 1: // write
		ip, e := fs.Lookup(fs.Root(), p, root0, true)
		if e != sys.OK {
			return e.Error()
		}
		_, e = ip.WriteAt(pattern(a[2], a[3]%64+1), int64(a[1]%96), 0)
		return fmt.Sprint(e)
	case 2: // truncate
		ip, e := fs.Lookup(fs.Root(), p, root0, true)
		if e != sys.OK {
			return e.Error()
		}
		return fmt.Sprint(ip.Truncate(int64(a[2] % 160)))
	case 3: // link
		ip, e := fs.Lookup(fs.Root(), p, root0, false)
		if e != sys.OK {
			return e.Error()
		}
		dir, name, e := parent(q)
		if e != sys.OK {
			return e.Error()
		}
		return fmt.Sprint(fs.Link(dir, name, ip, root0))
	case 4: // symlink
		dir, name, e := parent(p)
		if e != sys.OK {
			return e.Error()
		}
		_, e = fs.Symlink(dir, name, q, root0)
		return fmt.Sprint(e)
	case 5: // rename
		od, on, e := parent(p)
		if e != sys.OK {
			return e.Error()
		}
		nd, nn, e := parent(q)
		if e != sys.OK {
			return e.Error()
		}
		return fmt.Sprint(fs.Rename(od, on, nd, nn, root0))
	case 6: // unlink
		dir, name, e := parent(p)
		if e != sys.OK {
			return e.Error()
		}
		return fmt.Sprint(fs.Unlink(dir, name, root0))
	case 7: // mkdir
		dir, name, e := parent(p)
		if e != sys.OK {
			return e.Error()
		}
		_, e = fs.Mkdir(dir, name, 0o755, root0)
		return fmt.Sprint(e)
	case 8: // rmdir
		dir, name, e := parent(p)
		if e != sys.OK {
			return e.Error()
		}
		return fmt.Sprint(fs.Rmdir(dir, name, root0))
	case 11: // truncate to zero
		ip, e := fs.Lookup(fs.Root(), p, root0, true)
		if e != sys.OK {
			return e.Error()
		}
		return fmt.Sprint(ip.Truncate(0))
	case 12: // extend across buffer classes, by truncate or by a write past EOF
		ip, e := fs.Lookup(fs.Root(), p, root0, true)
		if e != sys.OK {
			return e.Error()
		}
		size := fuzzClassSizes[a[2]%len(fuzzClassSizes)]
		if a[3]%2 == 0 {
			return fmt.Sprint(ip.Truncate(size))
		}
		_, e = ip.WriteAt(pattern(a[3], a[3]%64+1), size, 0)
		return fmt.Sprint(e)
	}
	return readFuzzPath(fs, p) // 9: read
}

// fuzzClassSizes are file sizes at and around the allocator's classes.
var fuzzClassSizes = []int64{4095, 4096, 4097, 8192, 20000, 65536, 70000}

func readFuzzPath(fs *FS, p string) string {
	ip, e := fs.Lookup(fs.Root(), p, root0, true)
	if e != sys.OK {
		return e.Error()
	}
	if ip.IsDir() {
		n, _ := ip.EntryCount()
		return fmt.Sprintf("dir %d ino %d", n, ip.Ino)
	}
	return fmt.Sprintf("ino %d %x", ip.Ino, ip.Bytes())
}

// imageHash is the StateHash of an image, read through a fresh overlay.
func imageHash(img *image) [32]byte {
	fs := &FS{dev: 1, img: img}
	fs.ninodes.Store(img.ninodes)
	fs.root.Store(fs.reachLocked(img.root))
	return fs.StateHash()
}

package world_test

import (
	"bytes"
	"testing"

	"interpose/internal/apps"
	"interpose/internal/journal"
	"interpose/internal/sys"
	"interpose/internal/vfs"
	"interpose/internal/world"
)

// Closing a world gives its file arrays, journal chunks and pages back
// to one allocator that every world in the process draws from. These
// tests pin that a recycled byte never reaches another world and that no
// buffer goes back twice.

const (
	markA = 0xa5 // every byte world A writes
	markB = 0x5b // every byte world B writes
)

var root = vfs.Cred{}

// fileAt returns the regular file at path in w, creating it.
func fileAt(t *testing.T, w *world.World, path string) *vfs.Inode {
	t.Helper()
	fs := w.Kernel().FS()
	dir, name, ip, e := fs.LookupParent(fs.Root(), path, root)
	if e == sys.OK && ip == nil {
		ip, e = fs.Create(dir, name, 0o644, root)
	}
	if e != sys.OK {
		t.Fatalf("%s: %v", path, e)
	}
	return ip
}

// fill returns n bytes of b.
func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// fileModel mirrors one of world B's files: the bytes it must read back.
type fileModel struct {
	ip   *vfs.Inode
	want []byte
}

func (f *fileModel) write(t *testing.T, off, n int) {
	t.Helper()
	if _, e := f.ip.WriteAt(fill(markB, n), int64(off), 0); e != sys.OK {
		t.Fatalf("write %d@%d: %v", n, off, e)
	}
	if end := off + n; end > len(f.want) {
		f.want = append(f.want, make([]byte, end-len(f.want))...)
	}
	copy(f.want[off:], fill(markB, n))
}

func (f *fileModel) truncate(t *testing.T, n int) {
	t.Helper()
	if e := f.ip.Truncate(int64(n)); e != sys.OK {
		t.Fatalf("truncate %d: %v", n, e)
	}
	if n <= len(f.want) {
		f.want = f.want[:n]
	} else {
		f.want = append(f.want, make([]byte, n-len(f.want))...)
	}
}

// TestRecycledBytesStayPrivate: world A fills files grown through
// several buffer classes, and its in-memory journal, with markA, and
// closes. World B, forked from the same base, then extends files by
// truncate, by writes past EOF (holes) and by short writes: every byte
// it reads back is zero or its own, and its journal holds only its own
// frames. The rounds repeat so B draws what A gave back.
func TestRecycledBytesStayPrivate(t *testing.T) {
	base := boot(t, apps.Spec())
	spec := apps.Spec()
	spec.JournalMem = true
	for round := 0; round < 4; round++ {
		a, err := world.Fork(base, spec)
		if err != nil {
			t.Fatalf("fork A: %v", err)
		}
		grown := fileAt(t, a, "/tmp/grown") // through every class to 256 KiB
		for off := 0; off < 256<<10; off += 4096 {
			grown.WriteAt(fill(markA, 4096), int64(off), 0)
		}
		fileAt(t, a, "/tmp/whole").WriteAt(fill(markA, 100_000), 0, 0)
		cut := fileAt(t, a, "/tmp/cut")
		cut.WriteAt(fill(markA, 3*4096), 0, 0)
		cut.WriteAt(fill(markA, 3*4096), 3*4096, 0)
		cut.Truncate(0)
		if res := run(t, a, "sh", "-c", "cat /tmp/whole > /tmp/copy"); res.Status != 0 {
			t.Fatalf("A: cat: status %d %s", res.Status, res.Output)
		}
		if err := a.Kernel().Journal().Commit(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(world.JournalBytes(a), fill(markA, 4096)) {
			t.Fatal("A's journal does not hold its bytes")
		}
		if err := a.Close(); err != nil {
			t.Fatalf("close A: %v", err)
		}
		if world.Released(a) == 0 {
			t.Fatal("closing A gave nothing back")
		}

		b, err := world.Fork(base, spec)
		if err != nil {
			t.Fatalf("fork B: %v", err)
		}
		files := map[string]*fileModel{}
		for _, name := range []string{"/tmp/t", "/tmp/h", "/tmp/s", "/tmp/g"} {
			files[name] = &fileModel{ip: fileAt(t, b, name)}
		}
		files["/tmp/t"].truncate(t, 40_000)  // extend by truncate
		files["/tmp/h"].write(t, 70_000, 10) // a hole past EOF
		s := files["/tmp/s"]                 // short writes, then cut and regrown
		for i := 0; i < 7; i++ {
			s.write(t, i*1000, 1000)
		}
		s.truncate(t, 10)
		s.truncate(t, 50_000)
		s.write(t, 60_000, 5)
		g := files["/tmp/g"] // grown, emptied, rewritten past a hole
		for off := 0; off < 64<<10; off += 4096 {
			g.write(t, off, 4096)
		}
		g.truncate(t, 0)
		g.write(t, 5000, 9000)
		for name, f := range files {
			if got := f.ip.Bytes(); !bytes.Equal(got, f.want) {
				t.Fatalf("round %d: B reads %s wrong (%d bytes, want %d; holds A's bytes: %v)",
					round, name, len(got), len(f.want), bytes.IndexByte(got, markA) >= 0)
			}
		}
		if err := b.Kernel().Journal().Commit(); err != nil {
			t.Fatal(err)
		}
		jb := world.JournalBytes(b)
		recs, torn := journal.Scan(jb)
		if torn != nil || len(recs) == 0 {
			t.Fatalf("round %d: B's journal: %d records, torn %+v", round, len(recs), torn)
		}
		for _, r := range recs {
			if bytes.IndexByte(r.Data, markA) >= 0 {
				t.Fatalf("round %d: B's journal record %d carries A's bytes", round, r.Seq)
			}
		}
		if bytes.Contains(jb, fill(markA, 8)) {
			t.Fatalf("round %d: B's journal holds a run of A's bytes", round)
		}
		if err := b.Close(); err != nil {
			t.Fatalf("close B: %v", err)
		}
	}
}

// TestCloseGivesBackOnce: Close gives a world's buffers back once. A
// second Close, a second FS Release (a hard link is visited twice on
// the first) and a Close after an injected crash give back nothing more.
func TestCloseGivesBackOnce(t *testing.T) {
	base := boot(t, apps.Spec())
	for _, crash := range []bool{false, true} {
		spec := apps.Spec()
		spec.JournalMem = true
		if crash {
			spec.Inject = "seed=7,open:/boom=crash@1"
		}
		w, err := world.Fork(base, spec)
		if err != nil {
			t.Fatal(err)
		}
		f := fileAt(t, w, "/tmp/f")
		f.WriteAt(fill(1, 4096), 0, 0)
		f.WriteAt(fill(2, 4096), 4096, 0)
		fs := w.Kernel().FS()
		if e := fs.Link(fs.Root(), "link", f, root); e != sys.OK {
			t.Fatal(e)
		}
		if err := w.Kernel().Journal().Commit(); err != nil {
			t.Fatal(err)
		}
		if crash {
			w.Exec(world.ExecRequest{Argv: []string{"sh", "-c", "echo b > /boom"}})
			if !w.Crashed() {
				t.Fatal("world not marked crashed")
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("crash %v: close: %v", crash, err)
		}
		// /tmp/f's array, and at least one journal chunk.
		n := world.Released(w)
		if n < 2 {
			t.Fatalf("crash %v: Close gave back %d buffers, want at least 2", crash, n)
		}
		if again := fs.Release(); again != 0 {
			t.Fatalf("crash %v: a second FS Release gave back %d buffers", crash, again)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("crash %v: second close: %v", crash, err)
		}
		if world.Released(w) != n {
			t.Fatalf("crash %v: a second Close gave back %d more buffers", crash, world.Released(w)-n)
		}
	}
}

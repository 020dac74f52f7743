package world_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"interpose/internal/image"
	"interpose/internal/kernel"
	"interpose/internal/libc"
	"interpose/internal/sys"
	"interpose/internal/vfs"
	"interpose/internal/world"
)

// registerHi is the image set of the fuzzed checkpoints: one program,
// so a valid seed stays a few kilobytes. It writes "hi" to its console.
func registerHi(r *image.Registry) {
	r.Register("hi", libc.Main(func(t *libc.T) int {
		t.Write(1, []byte("hi\n"))
		return 0
	}))
}

// FuzzLoad feeds arbitrary bytes to Load as a checkpoint stream. Load
// must never panic, and a checkpoint it accepts must pass fsck and come
// back with the same StateHash from a Checkpoint → Load round trip. With
// fix set, the snapshot's size and checksum are first rewritten to cover
// the rest of the input, so mutations reach the inode decoder rather
// than stopping at the CRC.
func FuzzLoad(f *testing.F) {
	w, err := world.Boot(world.Spec{Name: "seed", Register: registerHi, Setup: []func(*kernel.Kernel) error{
		func(k *kernel.Kernel) error { return k.WriteFile("/etc/motd", []byte("hello\n"), 0o644) },
	}})
	if err != nil {
		f.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := w.Checkpoint(&ckpt); err != nil {
		f.Fatal(err)
	}
	w.Close()
	// The seed's /dev nodes bind to the loaded world's drivers: a session
	// writes to its console through /dev/console.
	tmpl, err := world.Load("seed", registerHi, bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		f.Fatalf("load of a valid checkpoint: %v", err)
	}
	if res, err := tmpl.Exec(world.ExecRequest{Argv: []string{"hi"}}); err != nil || res.Status != 0 || res.Output != "hi\n" {
		f.Fatalf("session on a loaded checkpoint: %v, %+v", err, res)
	}
	tmpl.Close()
	f.Add(ckpt.Bytes(), false)
	f.Add(ckpt.Bytes()[:ckpt.Len()-7], true)
	f.Add(sparseCheckpoint(1<<22), false)
	f.Add(sparseCheckpoint(1<<31), false)

	f.Fuzz(func(t *testing.T, data []byte, fix bool) {
		if fix {
			data = fixSnapshot(data)
		}
		w, err := world.Load("fuzz", registerHi, bytes.NewReader(data))
		if err != nil {
			return
		}
		defer w.Close()
		fs := w.Kernel().FS()
		if bad := fs.Check(); len(bad) != 0 {
			t.Fatalf("accepted checkpoint fails fsck: %v", bad)
		}
		var again bytes.Buffer
		if err := w.Checkpoint(&again); err != nil {
			t.Fatalf("checkpoint of a loaded world: %v", err)
		}
		w2, err := world.Load("again", registerHi, &again)
		if err != nil {
			t.Fatalf("reload of a loaded world's checkpoint: %v", err)
		}
		defer w2.Close()
		if w2.Kernel().FS().StateHash() != fs.StateHash() {
			t.Fatal("Checkpoint → Load round trip changed the StateHash")
		}
	})
}

// sparseCheckpoint returns a checkpoint, with no images, of a tree that
// is one empty root directory numbered ino: 62 bytes for ino 1<<22.
func sparseCheckpoint(ino uint32) []byte {
	u := binary.AppendUvarint
	var p []byte
	p = u(p, uint64(ino))   // root
	p = u(p, uint64(ino)+1) // next inode number
	p = u(p, 0)             // journal watermark
	p = u(p, 1)             // inode count
	p = u(p, uint64(ino))
	p = u(p, sys.S_IFDIR|0o755)
	p = u(p, 2)                                   // links
	p = append(p, 0, 0, 0)                        // uid, gid, rdev
	p = append(p, 0, 0, 0)                        // atime, mtime, ctime
	p = u(p, uint64(ino))                         // parent: itself
	p = u(p, 0)                                   // entries
	out := append([]byte("INTERPOSE-CKPT1\n"), 0) // no images
	out = append(out, "IVFSNAP1"...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
	return append(out, p...)
}

// TestLoadSparseInodeNumbers: a checkpoint whose only inode carries a
// huge number costs what it holds. Load, a Fork of the template and a
// walk of each allocate under 1 MB, where a clone index sized by the
// largest number reached would ask 67 MB for 1<<22 and 16 GB for 1<<31.
func TestLoadSparseInodeNumbers(t *testing.T) {
	for _, ino := range []uint32{1 << 22, 1 << 31} {
		data := sparseCheckpoint(ino)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tmpl, err := world.Load("sparse", registerHi, bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ino %d: load: %v", ino, err)
		}
		w, err := world.Fork(tmpl, world.Spec{Name: "sparse"})
		if err != nil {
			t.Fatalf("ino %d: fork: %v", ino, err)
		}
		for _, x := range []*world.World{tmpl, w} {
			fs := x.Kernel().FS()
			if root, e := fs.Lookup(fs.Root(), "/", vfs.Cred{}, true); e != sys.OK || root.Ino != ino {
				t.Fatalf("ino %d: lookup /: %v", ino, e)
			}
			if bad := fs.Check(); len(bad) != 0 {
				t.Fatalf("ino %d: fsck: %v", ino, bad)
			}
			fs.StateHash()
		}
		runtime.ReadMemStats(&after)
		w.Close()
		tmpl.Close()
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("ino %d: %d-byte checkpoint: Load + Fork + walks allocated %d bytes", ino, len(data), n)
		}
	}
}

// fixSnapshot returns a copy of data whose snapshot header, if it has
// one, declares the rest of data as its payload with a matching CRC.
func fixSnapshot(data []byte) []byte {
	const hdr = len("IVFSNAP1") + 8
	data = bytes.Clone(data)
	i := bytes.Index(data, []byte("IVFSNAP1"))
	if i < 0 || len(data)-i < hdr {
		return data
	}
	payload := data[i+hdr:]
	binary.LittleEndian.PutUint32(data[i+8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(data[i+12:], crc32.ChecksumIEEE(payload))
	return data
}

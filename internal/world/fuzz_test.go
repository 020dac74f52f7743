package world_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"interpose/internal/image"
	"interpose/internal/kernel"
	"interpose/internal/libc"
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

package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzScan feeds arbitrary bytes to Scan and checks that it never panics,
// accepts no record past the first bad frame, and that rescanning the
// valid prefix it reports gives back the same records with no torn tail.
// With fix set, the input's frame checksums are first made to match their
// payloads, so the fuzzer reaches payload decoding and the sequence check
// rather than stopping at the CRC.
func FuzzScan(f *testing.F) {
	var valid []byte
	for i, r := range []*Record{
		{Seq: 1, Op: OpCreate, Dir: 2, Ino: 10, Mode: 0o100644, Name: "a"},
		{Seq: 2, Op: OpWrite, Ino: 10, Off: 4096, Data: []byte("hello")},
		{Seq: 3, Op: OpRename, Dir: 2, Name: "a", Dir2: 3, Name2: "b", Ino: 10},
		{Seq: 4, Op: OpUtimes, Ino: 10, Off: -1, Size: 1 << 40},
	} {
		valid = AppendFrame(valid, r)
		f.Add(append([]byte(nil), valid...), i%2 == 0)
	}
	f.Add(valid[:len(valid)-3], false)
	f.Add(append(append([]byte(nil), valid...), 0x31, 0x4c), false)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, data []byte, fix bool) {
		if fix {
			fixChecksums(data)
		}
		recs, torn := Scan(data)
		end := len(data)
		if torn != nil {
			if torn.Off < 0 || torn.Off > int64(len(data)) || torn.Off+int64(torn.Lost) != int64(len(data)) || torn.Lost <= 0 {
				t.Fatalf("torn %+v inconsistent with %d bytes", torn, len(data))
			}
			end = int(torn.Off)
		}
		// Every accepted record is a whole valid frame, the frames tile
		// data[:end] from the head, and their sequence numbers run on.
		off := 0
		for i, r := range recs {
			n, ok := validFrame(data[off:])
			if !ok {
				t.Fatalf("record %d accepted from an invalid frame at offset %d", i, off)
			}
			if i > 0 && r.Seq != recs[i-1].Seq+1 {
				t.Fatalf("record %d: seq %d after %d", i, r.Seq, recs[i-1].Seq)
			}
			off += n
		}
		if off != end {
			t.Fatalf("accepted frames end at %d, valid prefix at %d", off, end)
		}
		again, torn2 := Scan(data[:end])
		if torn2 != nil {
			t.Fatalf("rescan of the valid prefix tore at %+v", torn2)
		}
		if len(again) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(again, recs)) {
			t.Fatalf("rescan of the valid prefix: %d records, first scan %d", len(again), len(recs))
		}
	})
}

// FuzzMemStore drives a MemStore and a flat byte-slice model through the
// same program of appends (empty, small, and up to three group commits
// long), syncs, freezes and releases, under a capacity limit. After
// every step the store's size and bytes must equal the model's, and an
// append must fail with ErrNoSpace exactly when the model overflows the
// limit. Appends straddle the store's chunk boundaries; a freeze tears
// up to 64 KiB off the tail, so a tear spans chunks, and must stop at
// the synced watermark. A release must give back one chunk per started
// chunk and leave the store frozen and empty; the program then goes on
// with a second store, which draws the chunks the first gave back.
func FuzzMemStore(f *testing.F) {
	f.Add([]byte{0, 10, 0, 20, 1, 0, 200, 2, 0xff, 0xff}, uint16(0))
	f.Add([]byte{0, 0, 0, 130, 0, 140, 0, 5, 2, 0x10, 0x30, 0, 9}, uint16(0))
	f.Add([]byte{0, 150, 1, 0, 160, 0, 3, 0, 170, 2, 0x01, 0x20}, uint16(9000))
	f.Add([]byte{0, 40, 0, 40, 0, 40, 0, 250, 0, 1}, uint16(100))
	f.Add([]byte{0, 200, 0, 255, 1, 0, 180, 2, 0x30, 0x00, 3, 0, 170, 0, 255, 3}, uint16(0))
	f.Fuzz(func(t *testing.T, prog []byte, limit uint16) {
		st := NewMemStore(int64(limit))
		var model []byte
		synced, frozen := 0, false
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		for step := 0; len(prog) > 0; step++ {
			switch next() % 4 {
			case 0: // append: a size byte past 128 means up to 12 KB
				n := next()
				if n > 128 {
					n = (n - 128) * 97
				}
				p := make([]byte, n)
				for i := range p {
					p[i] = byte(step + i)
				}
				err := st.Append(p)
				full := !frozen && limit > 0 && len(model)+n > int(limit)
				if full != errors.Is(err, ErrNoSpace) || (!full && err != nil) {
					t.Fatalf("step %d: Append(%d bytes) at size %d, limit %d: %v", step, n, len(model), limit, err)
				}
				if !frozen && !full {
					model = append(model, p...)
				}
				// The Writer reuses its group buffer once Append returns.
				for i := range p {
					p[i] = 0xee
				}
			case 1:
				if err := st.Sync(); err != nil {
					t.Fatalf("step %d: Sync: %v", step, err)
				}
				if !frozen {
					synced = len(model)
				}
			case 2:
				torn := next()<<8 | next()
				st.Freeze(torn)
				if !frozen {
					frozen = true
					model = model[:len(model)-min(torn, len(model)-synced)]
				}
			case 3:
				want := (len(model) + chunkSize - 1) / chunkSize
				if got := st.Release(); got != want {
					t.Fatalf("step %d: Release gave back %d chunks for %d bytes, want %d", step, got, len(model), want)
				}
				if st.Size() != 0 || len(st.Bytes()) != 0 {
					t.Fatalf("step %d: a released store holds %d bytes", step, st.Size())
				}
				if err := st.Append([]byte("late")); err != nil || st.Size() != 0 {
					t.Fatalf("step %d: append to a released store: %v, size %d", step, err, st.Size())
				}
				st = NewMemStore(int64(limit))
				model, synced, frozen = nil, 0, false
			}
			if got := st.Size(); got != int64(len(model)) {
				t.Fatalf("step %d: Size %d, model %d", step, got, len(model))
			}
			if got := st.Bytes(); !bytes.Equal(got, model) {
				t.Fatalf("step %d: Bytes differ from the model (%d vs %d bytes)", step, len(got), len(model))
			}
		}
	})
}

// validFrame reports the length of the frame at the head of b if its
// header is whole, its magic right, and its payload whole with a matching
// checksum.
func validFrame(b []byte) (int, bool) {
	if len(b) < frameHeader || binary.LittleEndian.Uint32(b) != Magic {
		return 0, false
	}
	n := binary.LittleEndian.Uint32(b[4:])
	if uint64(n) > uint64(len(b)-frameHeader) {
		return 0, false
	}
	if crc32.ChecksumIEEE(b[frameHeader:frameHeader+int(n)]) != binary.LittleEndian.Uint32(b[8:]) {
		return 0, false
	}
	return frameHeader + int(n), true
}

// fixChecksums rewrites the checksum of each frame that has a whole
// header and payload, walking frames from the head, and stops at the
// first that does not.
func fixChecksums(b []byte) {
	for len(b) >= frameHeader {
		n := binary.LittleEndian.Uint32(b[4:])
		if uint64(n) > uint64(len(b)-frameHeader) {
			return
		}
		binary.LittleEndian.PutUint32(b[8:], crc32.ChecksumIEEE(b[frameHeader:frameHeader+int(n)]))
		b = b[frameHeader+int(n):]
	}
}

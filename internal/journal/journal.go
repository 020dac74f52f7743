// Package journal implements the write-ahead logical redo journal that
// makes a simulated world's filesystem state crash-recoverable. Every
// VFS mutation appends one checksummed, sequence-numbered record; after
// a crash, replaying the journal over a checkpoint snapshot (or a fresh
// boot) reconstructs exactly the committed state.
//
// Records are logical and addressed by inode number, and every record is
// idempotent by construction: creates skip when the name already holds
// the same inode, unlinks and renames skip on an inode mismatch, and
// data/attribute records carry absolute values (offset+bytes, absolute
// length, full mode). A journal can therefore be replayed twice — or
// replayed over a snapshot taken at any point inside it — and land on
// the same bytes.
//
// The on-store format is a sequence of frames:
//
//	u32 magic | u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// where the payload is the varint-encoded record. The frame CRC plus the
// strictly contiguous sequence numbers give torn-tail detection: a scan
// stops cleanly at the first truncated, corrupt, or out-of-sequence
// frame and reports how many trailing bytes were discarded, the analog
// of a disk losing a partially written sector at crash time.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Magic marks the start of every record frame.
const Magic uint32 = 0x4a4e4c31 // "JNL1"

// frameHeader is the fixed prefix of a frame: magic, length, CRC.
const frameHeader = 12

// Op identifies the mutation a record redoes.
type Op uint8

const (
	// OpCreate makes a node (file, directory, symlink, or device) named
	// Name in directory Dir with inode number Ino. Mode carries the full
	// type+permission bits, Data the symlink target for links.
	OpCreate Op = iota + 1
	// OpLink adds a hard link Name in Dir to existing inode Ino.
	OpLink
	// OpUnlink removes entry Name (inode Ino) from Dir.
	OpUnlink
	// OpRmdir removes the empty directory entry Name (inode Ino) from Dir.
	OpRmdir
	// OpRename moves Dir/Name to Dir2/Name2 (inode Ino), replacing any
	// compatible existing target.
	OpRename
	// OpWrite stores Data at absolute offset Off of inode Ino.
	OpWrite
	// OpTruncate sets inode Ino to absolute length Size.
	OpTruncate
	// OpChmod sets the permission bits of inode Ino to Mode.
	OpChmod
	// OpChown sets ownership of inode Ino to UID:GID (absolute values;
	// "leave unchanged" is resolved before logging).
	OpChown
	// OpUtimes sets access/modification times of inode Ino: Off holds
	// atime, Size mtime, both in Unix nanoseconds.
	OpUtimes
)

var opNames = [...]string{
	OpCreate: "create", OpLink: "link", OpUnlink: "unlink", OpRmdir: "rmdir",
	OpRename: "rename", OpWrite: "write", OpTruncate: "truncate",
	OpChmod: "chmod", OpChown: "chown", OpUtimes: "utimes",
}

// String names the operation.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", int(o))
}

// Record is one logical redo record. Which fields are meaningful depends
// on Op (see the Op constants). Seq is assigned by the Writer.
type Record struct {
	Seq   uint64
	Op    Op
	Dir   uint32 // containing directory inode (namespace ops)
	Dir2  uint32 // rename destination directory
	Ino   uint32 // the inode the record is about
	Mode  uint32
	UID   uint32
	GID   uint32
	Rdev  uint32
	Off   int64 // write offset; OpUtimes atime (ns)
	Size  int64 // truncate length; OpUtimes mtime (ns)
	Name  string
	Name2 string
	Data  []byte // write payload; create symlink target
}

// String renders the record for logs.
func (r *Record) String() string {
	switch r.Op {
	case OpCreate:
		return fmt.Sprintf("#%d create %d/%s ino=%d mode=%o", r.Seq, r.Dir, r.Name, r.Ino, r.Mode)
	case OpLink:
		return fmt.Sprintf("#%d link %d/%s ino=%d", r.Seq, r.Dir, r.Name, r.Ino)
	case OpUnlink, OpRmdir:
		return fmt.Sprintf("#%d %s %d/%s ino=%d", r.Seq, r.Op, r.Dir, r.Name, r.Ino)
	case OpRename:
		return fmt.Sprintf("#%d rename %d/%s -> %d/%s ino=%d", r.Seq, r.Dir, r.Name, r.Dir2, r.Name2, r.Ino)
	case OpWrite:
		return fmt.Sprintf("#%d write ino=%d off=%d len=%d", r.Seq, r.Ino, r.Off, len(r.Data))
	case OpTruncate:
		return fmt.Sprintf("#%d truncate ino=%d size=%d", r.Seq, r.Ino, r.Size)
	default:
		return fmt.Sprintf("#%d %s ino=%d", r.Seq, r.Op, r.Ino)
	}
}

// appendPayload varint-encodes the record body (everything but the frame).
func appendPayload(b []byte, r *Record) []byte {
	b = binary.AppendUvarint(b, r.Seq)
	b = binary.AppendUvarint(b, uint64(r.Op))
	b = binary.AppendUvarint(b, uint64(r.Dir))
	b = binary.AppendUvarint(b, uint64(r.Dir2))
	b = binary.AppendUvarint(b, uint64(r.Ino))
	b = binary.AppendUvarint(b, uint64(r.Mode))
	b = binary.AppendUvarint(b, uint64(r.UID))
	b = binary.AppendUvarint(b, uint64(r.GID))
	b = binary.AppendUvarint(b, uint64(r.Rdev))
	b = binary.AppendVarint(b, r.Off)
	b = binary.AppendVarint(b, r.Size)
	b = binary.AppendUvarint(b, uint64(len(r.Name)))
	b = append(b, r.Name...)
	b = binary.AppendUvarint(b, uint64(len(r.Name2)))
	b = append(b, r.Name2...)
	b = binary.AppendUvarint(b, uint64(len(r.Data)))
	b = append(b, r.Data...)
	return b
}

// maxFrame bounds the length of r's frame: the header, the longest
// varint for each of its 14 integers and length prefixes, and its bytes.
func maxFrame(r *Record) int {
	return frameHeader + 14*binary.MaxVarintLen64 + len(r.Name) + len(r.Name2) + len(r.Data)
}

// AppendFrame encodes the record as a complete frame onto b.
func AppendFrame(b []byte, r *Record) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	b = appendPayload(b, r)
	payload := b[start+frameHeader:]
	binary.LittleEndian.PutUint32(b[start:], Magic)
	binary.LittleEndian.PutUint32(b[start+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+8:], crc32.ChecksumIEEE(payload))
	return b
}

// payloadReader decodes varints with explicit bounds checking; any
// malformation flags the record as bad rather than panicking.
type payloadReader struct {
	b   []byte
	pos int
	bad bool
}

func (p *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(p.b[p.pos:])
	if n <= 0 {
		p.bad = true
		return 0
	}
	p.pos += n
	return v
}

func (p *payloadReader) varint() int64 {
	v, n := binary.Varint(p.b[p.pos:])
	if n <= 0 {
		p.bad = true
		return 0
	}
	p.pos += n
	return v
}

func (p *payloadReader) bytes() []byte {
	n := p.uvarint()
	if p.bad || n > uint64(len(p.b)-p.pos) {
		p.bad = true
		return nil
	}
	out := p.b[p.pos : p.pos+int(n)]
	p.pos += int(n)
	return out
}

// decodePayload parses one frame payload into a Record.
func decodePayload(b []byte) (*Record, bool) {
	p := &payloadReader{b: b}
	r := &Record{
		Seq:  p.uvarint(),
		Op:   Op(p.uvarint()),
		Dir:  uint32(p.uvarint()),
		Dir2: uint32(p.uvarint()),
		Ino:  uint32(p.uvarint()),
		Mode: uint32(p.uvarint()),
		UID:  uint32(p.uvarint()),
		GID:  uint32(p.uvarint()),
		Rdev: uint32(p.uvarint()),
		Off:  p.varint(),
		Size: p.varint(),
	}
	r.Name = string(p.bytes())
	r.Name2 = string(p.bytes())
	if d := p.bytes(); len(d) > 0 {
		r.Data = append([]byte(nil), d...)
	}
	if p.bad || r.Op == 0 {
		return nil, false
	}
	return r, true
}

// Torn describes a discarded journal tail: everything from Off onward
// failed frame validation and was dropped by the scan, the way fsck
// discards a half-written disk sector.
type Torn struct {
	Off    int64  // byte offset where the valid prefix ends
	Lost   int    // bytes discarded
	Reason string // first validation failure
}

func (t *Torn) Error() string {
	return fmt.Sprintf("journal: torn tail at offset %d (%d bytes dropped): %s", t.Off, t.Lost, t.Reason)
}

// Scan decodes every valid record from the head of data. The scan stops
// at the first torn, corrupt, or out-of-sequence frame; torn is non-nil
// when trailing bytes were discarded. Sequence numbers must be strictly
// contiguous from the first record.
func Scan(data []byte) (recs []*Record, torn *Torn) {
	off := 0
	tear := func(reason string) *Torn {
		return &Torn{Off: int64(off), Lost: len(data) - off, Reason: reason}
	}
	var wantSeq uint64
	for off < len(data) {
		if len(data)-off < frameHeader {
			return recs, tear("truncated frame header")
		}
		if binary.LittleEndian.Uint32(data[off:]) != Magic {
			return recs, tear("bad frame magic")
		}
		n := int(binary.LittleEndian.Uint32(data[off+4:]))
		sum := binary.LittleEndian.Uint32(data[off+8:])
		if n < 0 || n > len(data)-off-frameHeader {
			return recs, tear("truncated frame payload")
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, tear("payload checksum mismatch")
		}
		r, ok := decodePayload(payload)
		if !ok {
			return recs, tear("malformed record payload")
		}
		if wantSeq == 0 {
			wantSeq = r.Seq
		}
		if r.Seq != wantSeq {
			return recs, tear(fmt.Sprintf("sequence gap: want #%d got #%d", wantSeq, r.Seq))
		}
		wantSeq++
		recs = append(recs, r)
		off += frameHeader + n
	}
	return recs, nil
}

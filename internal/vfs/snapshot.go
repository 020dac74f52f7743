package vfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"time"

	"interpose/internal/sys"
)

// World checkpointing: WriteSnapshot serializes a quiesced filesystem —
// every inode reachable from the root, with data, metadata and directory
// structure — into a self-validating binary image; ReadSnapshot rebuilds
// an identical FS from one. Restore composes with the write-ahead journal
// (journal.go): load the snapshot, then replay the journal suffix taken
// after it (replay.go) to roll the world forward to the crash point.
//
// The format is a CRC-guarded payload of varint-encoded inode records in
// two passes: record everything keyed by inode number, then wire
// directory entries and parents by number. Device inodes serialize their
// rdev only and come back unbound: the kernel owns the drivers, and Fork
// is the one place an rdev is bound to one (fork.go).

const snapMagic = "IVFSNAP1"

// snapEnc builds the snapshot payload.
type snapEnc struct{ buf []byte }

func (e *snapEnc) u(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *snapEnc) i(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *snapEnc) s(s string) { e.u(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *snapEnc) b(p []byte) { e.u(uint64(len(p))); e.buf = append(e.buf, p...) }

// snapDec consumes a snapshot payload with bounds checking.
type snapDec struct {
	buf []byte
	err error
}

func (d *snapDec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("vfs: snapshot truncated")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *snapDec) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("vfs: snapshot truncated")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *snapDec) b() []byte {
	n := d.u()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("vfs: snapshot truncated")
		return nil
	}
	p := d.buf[:n]
	d.buf = d.buf[n:]
	return p
}

func (d *snapDec) s() string { return string(d.b()) }

// n reads a count of records that each take at least one more byte, and
// fails it if fewer bytes remain: no count allocates or loops past the
// payload it came in.
func (d *snapDec) n() uint64 {
	n := d.u()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("vfs: snapshot count %d exceeds its %d remaining bytes", n, len(d.buf))
	}
	if d.err != nil {
		return 0
	}
	return n
}

// WriteSnapshot serializes the filesystem to w. The world must be
// quiesced (no running mutators); the walk takes each inode's read lock
// but consistency across inodes is the caller's responsibility.
func (fs *FS) WriteSnapshot(w io.Writer) error {
	// Collect every reachable inode, parents before children so the
	// reader can wire ".." in one later pass.
	var inodes []*Inode
	seen := map[uint32]bool{}
	var walk func(ip *Inode)
	walk = func(ip *Inode) {
		if seen[ip.Ino] {
			return // extra hard link; serialized once
		}
		seen[ip.Ino] = true
		inodes = append(inodes, ip)
		if !ip.IsDir() {
			return
		}
		t := ip.names()
		for _, n := range t.order {
			walk(fs.peek(t.m[n]))
		}
	}
	root := fs.Root()
	walk(root)

	var e snapEnc
	e.u(uint64(root.Ino))
	e.u(uint64(fs.nextIno.Load()))
	e.u(fs.jnlSeq.Load())
	e.u(uint64(len(inodes)))
	for _, ip := range inodes {
		ip.mu.RLock()
		e.u(uint64(ip.Ino))
		e.u(uint64(ip.Mode))
		e.u(uint64(ip.Nlink))
		e.u(uint64(ip.UID))
		e.u(uint64(ip.GID))
		e.u(uint64(ip.Rdev))
		e.i(ip.Atime.UnixNano())
		e.i(ip.Mtime.UnixNano())
		e.i(ip.Ctime.UnixNano())
		switch ip.typ {
		case sys.S_IFREG:
			e.b(ip.data)
		case sys.S_IFLNK:
			e.s(ip.link)
		case sys.S_IFDIR:
			pp := ip.parentPtr()
			t := ip.names()
			e.u(uint64(pp.Ino))
			e.u(uint64(len(t.order)))
			for _, name := range t.order {
				e.s(name)
				e.u(uint64(t.m[name].Ino))
			}
		}
		ip.mu.RUnlock()
	}

	var hdr [len(snapMagic) + 8]byte
	copy(hdr[:], snapMagic)
	binary.LittleEndian.PutUint32(hdr[len(snapMagic):], uint32(len(e.buf)))
	binary.LittleEndian.PutUint32(hdr[len(snapMagic)+4:], crc32.ChecksumIEEE(e.buf))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(e.buf)
	return err
}

// snapDir holds a directory's deferred wiring (pass two).
type snapDir struct {
	ip      *Inode
	parent  uint32
	names   []string
	kidInos []uint32
}

// ReadSnapshot reconstructs a filesystem from a snapshot produced by
// WriteSnapshot. Its device nodes are unbound: a Fork binds them to the
// child world's drivers, and fails on an rdev the child has no driver
// for. Every length and count in the stream is checked against the bytes
// that remain before anything is allocated for it.
func ReadSnapshot(r io.Reader) (*FS, error) {
	var hdr [len(snapMagic) + 8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("vfs: snapshot header: %w", err)
	}
	if string(hdr[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("vfs: not a snapshot (bad magic)")
	}
	size := binary.LittleEndian.Uint32(hdr[len(snapMagic):])
	want := binary.LittleEndian.Uint32(hdr[len(snapMagic)+4:])
	// Read at most size bytes into one array sized up front, but size it
	// for at most 1 MiB: past that, a false size costs only what the
	// stream holds.
	var buf bytes.Buffer
	buf.Grow(int(min(size, 1<<20)) + bytes.MinRead)
	n, err := buf.ReadFrom(io.LimitReader(r, int64(size)))
	if err == nil && n != int64(size) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("vfs: snapshot payload: %w", err)
	}
	payload := buf.Bytes()
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("vfs: snapshot checksum mismatch (%08x != %08x)", got, want)
	}

	fs := &FS{dev: 1, clock: time.Now}
	d := &snapDec{buf: payload}
	rootIno := uint32(d.u())
	nextIno := uint32(d.u())
	jnlSeq := d.u()
	count := d.n()
	if d.err != nil {
		return nil, d.err
	}

	// Pass one: materialize every inode by number.
	byIno := make(map[uint32]*Inode, count)
	dirs := make([]snapDir, 0, count/4)
	for n := uint64(0); n < count; n++ {
		ip := &Inode{fs: fs}
		ip.Ino = uint32(d.u())
		ip.Mode = uint32(d.u())
		ip.typ = ip.Mode & sys.S_IFMT
		ip.Nlink = uint32(d.u())
		ip.UID = uint32(d.u())
		ip.GID = uint32(d.u())
		ip.Rdev = uint32(d.u())
		ip.Atime = time.Unix(0, d.i())
		ip.Mtime = time.Unix(0, d.i())
		ip.Ctime = time.Unix(0, d.i())
		switch ip.typ {
		case sys.S_IFREG:
			ip.data = append([]byte(nil), d.b()...)
		case sys.S_IFLNK:
			ip.link = d.s()
		case sys.S_IFDIR:
			sd := snapDir{ip: ip, parent: uint32(d.u())}
			nent := d.n()
			for j := uint64(0); j < nent && d.err == nil; j++ {
				sd.names = append(sd.names, d.s())
				sd.kidInos = append(sd.kidInos, uint32(d.u()))
			}
			dirs = append(dirs, sd)
		case sys.S_IFCHR:
			fs.bind(ip.Rdev, nil)
		}
		if d.err != nil {
			return nil, d.err
		}
		if byIno[ip.Ino] != nil {
			return nil, fmt.Errorf("vfs: snapshot duplicates inode %d", ip.Ino)
		}
		if ip.Ino >= nextIno {
			return nil, fmt.Errorf("vfs: snapshot inode %d at or past the allocator's %d", ip.Ino, nextIno)
		}
		ip.publishAttrs()
		byIno[ip.Ino] = ip
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("vfs: %d trailing snapshot bytes", len(d.buf))
	}

	// Pass two: wire directory entries and parent pointers by number.
	for _, sd := range dirs {
		pp := byIno[sd.parent]
		if pp == nil {
			return nil, fmt.Errorf("vfs: directory %d has unknown parent %d", sd.ip.Ino, sd.parent)
		}
		sd.ip.setParent(pp)
		t := &dirTable{m: make(map[string]*Inode, len(sd.names)), order: sd.names}
		for i, name := range sd.names {
			child := byIno[sd.kidInos[i]]
			if child == nil {
				return nil, fmt.Errorf("vfs: entry %q in directory %d references unknown inode %d",
					name, sd.ip.Ino, sd.kidInos[i])
			}
			t.m[name] = child
		}
		sd.ip.tab.Store(t)
	}

	root := byIno[rootIno]
	if root == nil || !root.IsDir() {
		return nil, fmt.Errorf("vfs: snapshot root %d missing or not a directory", rootIno)
	}
	fs.root.Store(root)
	fs.nextIno.Store(nextIno)
	fs.ninodes.Store(int64(len(byIno)))
	fs.jnlSeq.Store(jnlSeq)
	return fs, nil
}

// walkTree visits every reachable inode exactly once (by inode number),
// parents before children, passing each inode's path. It reads each
// directory's published name table, child names in sorted order for
// deterministic traversal. It reads through an overlay: an inode not
// yet reached is visited as its image version, and nothing is cloned.
func (fs *FS) walkTree(visit func(path string, ip *Inode)) {
	seen := map[uint32]bool{}
	var walk func(path string, ip *Inode)
	walk = func(path string, ip *Inode) {
		if seen[ip.Ino] {
			return
		}
		seen[ip.Ino] = true
		visit(path, ip)
		if !ip.IsDir() {
			return
		}
		t := ip.names()
		names := slices.Clone(t.order)
		sort.Strings(names)
		for _, name := range names {
			child := t.m[name]
			p := path + "/" + name
			if path == "/" {
				p = "/" + name
			}
			walk(p, fs.peek(child))
		}
	}
	walk("/", fs.Root())
}

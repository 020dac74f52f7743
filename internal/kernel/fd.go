package kernel

import (
	"sync"

	"interpose/internal/sys"
	"interpose/internal/vfs"
)

// File is an open file description: shared (via dup and fork) state — the
// seek offset, open flags, and the underlying object. Mutable fields are
// protected by the File's own mutex, except lockHeld, which belongs to
// the kernel-wide flock lock (it is written together with the inode's
// advisory-lock counters).
type File struct {
	mu    sync.Mutex
	refs  int
	ip    *vfs.Inode // nil for pipes; immutable
	pipe  *Pipe      // immutable
	rdEnd bool       // which end of a pipe this is; immutable
	flags int        // O_ accmode | O_APPEND | O_NONBLOCK
	off   int64

	dirEOF bool // getdirentries saw the end (invalidated by lseek)

	lockHeld int // sys.LOCK_SH or sys.LOCK_EX while holding an flock; k.flockMu
}

// Inode returns the file's inode (nil for pipes).
func (f *File) Inode() *vfs.Inode { return f.ip }

// ref adds one descriptor reference.
func (f *File) ref() {
	f.mu.Lock()
	f.refs++
	f.mu.Unlock()
}

// Flags returns the current open flags.
func (f *File) Flags() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flags
}

// fdesc is one slot in a process's descriptor table.
type fdesc struct {
	file    *File
	cloexec bool
}

// fdLimit is the number of descriptors p may hold: RLIMIT_NOFILE, capped
// by the kernel's table bound. The table itself grows on demand up to it.
func (p *Proc) fdLimit() int {
	return min(int(p.Rlimit(sys.RLIMIT_NOFILE).Cur), sys.OpenMax)
}

// allocFD finds the lowest free descriptor slot at or above min.
// Caller holds p.fdMu.
func (p *Proc) allocFDLocked(min int) (int, sys.Errno) {
	for fd := max(min, 0); fd < p.fdLimit(); fd++ {
		if fd >= len(p.fds) || p.fds[fd].file == nil {
			return fd, sys.OK
		}
	}
	return 0, sys.EMFILE
}

// fileLocked returns the open file at descriptor fd. Caller holds p.fdMu.
func (p *Proc) fileLocked(fd int) (*File, sys.Errno) {
	if fd < 0 || fd >= len(p.fds) || p.fds[fd].file == nil {
		return nil, sys.EBADF
	}
	return p.fds[fd].file, sys.OK
}

// file returns the open file at descriptor fd.
func (p *Proc) file(fd int) (*File, sys.Errno) {
	p.fdMu.Lock()
	defer p.fdMu.Unlock()
	return p.fileLocked(fd)
}

// installFD places a file in a specific slot, growing the table to
// reach it. Caller holds p.fdMu.
func (p *Proc) installFDLocked(fd int, f *File, cloexec bool) {
	if fd >= len(p.fds) {
		p.fds = append(p.fds, make([]fdesc, fd+1-len(p.fds))...)
	}
	p.fds[fd] = fdesc{file: f, cloexec: cloexec}
	f.ref()
}

// closeFD releases descriptor fd. Caller holds p.fdMu.
func (p *Proc) closeFDLocked(fd int) sys.Errno {
	if fd < 0 || fd >= len(p.fds) || p.fds[fd].file == nil {
		return sys.EBADF
	}
	f := p.fds[fd].file
	p.fds[fd] = fdesc{}
	p.k.releaseFile(f)
	return sys.OK
}

// releaseFile drops one reference to an open file description, tearing
// down pipe ends and advisory locks at zero. May be called with p.fdMu
// held; takes the file, pipe, and flock locks as needed.
func (k *Kernel) releaseFile(f *File) {
	f.mu.Lock()
	f.refs--
	last := f.refs == 0
	f.mu.Unlock()
	if !last {
		return
	}
	if f.pipe != nil {
		pp := f.pipe
		pp.mu.Lock()
		pp.closeEnd(f.rdEnd)
		// A vanished peer is a wait condition for both directions:
		// readers see EOF, writers see EPIPE.
		pp.readQ.wakeAll()
		pp.writeQ.wakeAll()
		pp.mu.Unlock()
	}
	if f.ip != nil {
		k.flockMu.Lock()
		if f.lockHeld != 0 {
			unflockLocked(f)
			k.flockQ.wakeAll()
		}
		k.flockMu.Unlock()
	}
}

// unflockLocked releases an advisory lock held by f. Caller holds
// k.flockMu.
func unflockLocked(f *File) {
	switch f.lockHeld {
	case sys.LOCK_EX:
		f.ip.LockEx = false
	case sys.LOCK_SH:
		f.ip.LockShared--
	}
	f.lockHeld = 0
}

// Pipe is a classic 4.3BSD pipe: a bounded byte buffer with a reader end
// and a writer end. Each pipe has its own lock and its own wait queues —
// a write wakes only this pipe's readers.
type Pipe struct {
	mu      sync.Mutex
	buf     []byte
	start   int
	count   int
	readers int
	writers int

	readQ  waitQ // blocked readers, waiting for bytes or writer close
	writeQ waitQ // blocked writers, waiting for space or reader close

	// edgeSpan is the root span of the most recent traced writer; the
	// next traced reader consumes it as its causal link (the pipe
	// write→read edge of causal tracing). Guarded by mu.
	edgeSpan uint64
}

func newPipe() *Pipe {
	return &Pipe{buf: make([]byte, sys.PipeBuf), readers: 1, writers: 1}
}

// closeEnd drops one end. Caller holds pp.mu.
func (pp *Pipe) closeEnd(rdEnd bool) {
	if rdEnd {
		pp.readers--
	} else {
		pp.writers--
	}
}

// read copies up to len(p) buffered bytes out. Caller holds pp.mu.
func (pp *Pipe) read(p []byte) int {
	n := 0
	for n < len(p) && pp.count > 0 {
		c := copy(p[n:], pp.buf[pp.start:min(pp.start+pp.count, len(pp.buf))])
		pp.start = (pp.start + c) % len(pp.buf)
		pp.count -= c
		n += c
	}
	return n
}

// write copies as much of p as fits. Caller holds pp.mu.
func (pp *Pipe) write(p []byte) int {
	n := 0
	for n < len(p) && pp.count < len(pp.buf) {
		end := (pp.start + pp.count) % len(pp.buf)
		space := len(pp.buf) - pp.count
		chunk := len(pp.buf) - end
		if chunk > space {
			chunk = space
		}
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		copy(pp.buf[end:end+chunk], p[n:n+chunk])
		pp.count += chunk
		n += chunk
	}
	return n
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

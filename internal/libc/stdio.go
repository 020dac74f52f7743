package libc

import (
	"fmt"
	"strings"

	"interpose/internal/sys"
)

// stdioBuf is the stdio buffer size.
const stdioBuf = 4096

// FILE is a buffered stdio stream over a file descriptor.
type FILE struct {
	t  *T
	fd int

	rbuf []byte // buffered unread input
	wbuf []byte // buffered unwritten output; from xferPool, taken at first write

	buffered     bool // output is buffered (stderr and read-only streams are not)
	lineBuffered bool
	err          sys.Errno
	eof          bool
}

// Fopen opens a stdio stream. mode is "r", "w", or "a".
func (t *T) Fopen(path, mode string) (*FILE, sys.Errno) {
	var flags int
	switch mode {
	case "r":
		flags = sys.O_RDONLY
	case "w":
		flags = sys.O_WRONLY | sys.O_CREAT | sys.O_TRUNC
	case "a":
		flags = sys.O_WRONLY | sys.O_CREAT | sys.O_APPEND
	case "r+":
		flags = sys.O_RDWR
	case "w+":
		flags = sys.O_RDWR | sys.O_CREAT | sys.O_TRUNC
	default:
		return nil, sys.EINVAL
	}
	fd, err := t.Open(path, flags, 0o666)
	if err != sys.OK {
		return nil, err
	}
	return &FILE{t: t, fd: fd, buffered: flags&sys.O_ACCMODE != sys.O_RDONLY}, sys.OK
}

// Fdopen wraps an existing descriptor in a stream.
func (t *T) Fdopen(fd int) *FILE {
	return &FILE{t: t, fd: fd, buffered: true}
}

// FD returns the stream's file descriptor.
func (f *FILE) FD() int { return f.fd }

// Err returns the stream's sticky error.
func (f *FILE) Err() sys.Errno { return f.err }

// EOF reports whether the stream has seen end of file.
func (f *FILE) EOF() bool { return f.eof && len(f.rbuf) == 0 }

// Write buffers p for output.
func (f *FILE) Write(p []byte) (int, error) {
	if !f.buffered {
		// Unbuffered stream (stderr).
		if e := f.t.WriteString(f.fd, string(p)); e != sys.OK {
			f.err = e
			return 0, e
		}
		return len(p), nil
	}
	if f.wbuf == nil {
		f.wbuf = (*getXfer())[:0]
	}
	f.wbuf = append(f.wbuf, p...)
	flushAll := f.lineBuffered && len(p) > 0 && p[len(p)-1] == '\n'
	for len(f.wbuf) >= stdioBuf || (flushAll && len(f.wbuf) > 0) {
		if e := f.flushOnce(); e != sys.OK {
			return 0, e
		}
	}
	return len(p), nil
}

// WriteString buffers s for output.
func (f *FILE) WriteString(s string) { f.Write([]byte(s)) }

// Printf formats to the stream.
func (f *FILE) Printf(format string, args ...any) {
	f.WriteString(fmt.Sprintf(format, args...))
}

// Println writes the operands followed by a newline.
func (f *FILE) Println(args ...any) {
	f.WriteString(fmt.Sprintln(args...))
}

func (f *FILE) flushOnce() sys.Errno {
	n := len(f.wbuf)
	if n > stdioBuf {
		n = stdioBuf
	}
	// WriteAll absorbs EINTR and completes short writes; whatever it
	// did write is consumed from the buffer even on error, so a retried
	// Flush never re-emits bytes that already reached the descriptor.
	wrote, err := f.t.WriteAll(f.fd, f.wbuf[:n])
	f.wbuf = f.wbuf[:copy(f.wbuf, f.wbuf[wrote:])]
	if err != sys.OK {
		f.err = err
		return err
	}
	return sys.OK
}

// Flush writes out all buffered output.
func (f *FILE) Flush() sys.Errno {
	for len(f.wbuf) > 0 {
		if e := f.flushOnce(); e != sys.OK {
			return e
		}
	}
	return sys.OK
}

// release returns the output buffer to xferPool once it is drained. A
// buffer holding unflushed bytes, or one append outgrew, is left to the
// garbage collector. A later write takes a fresh buffer.
func (f *FILE) release() {
	if len(f.wbuf) == 0 && cap(f.wbuf) == xferBufSize {
		b := f.wbuf[:xferBufSize]
		putXfer(&b)
	}
	f.wbuf = nil
}

// Close flushes and closes the stream.
func (f *FILE) Close() sys.Errno {
	e := f.Flush()
	f.release()
	if e != sys.OK {
		f.t.Close(f.fd)
		return e
	}
	return f.t.Close(f.fd)
}

// Read reads buffered input.
func (f *FILE) Read(p []byte) (int, sys.Errno) {
	if len(f.rbuf) == 0 && !f.eof {
		if e := f.fill(); e != sys.OK {
			return 0, e
		}
	}
	n := copy(p, f.rbuf)
	f.rbuf = f.rbuf[n:]
	return n, sys.OK
}

func (f *FILE) fill() sys.Errno {
	bp := getXfer()
	defer putXfer(bp)
	buf := (*bp)[:stdioBuf]
	n, err := f.t.ReadRetry(f.fd, buf)
	if err != sys.OK {
		f.err = err
		return err
	}
	if n == 0 {
		f.eof = true
		return sys.OK
	}
	f.rbuf = append(f.rbuf, buf[:n]...)
	return sys.OK
}

// ReadLine reads one line, excluding the newline. ok is false at EOF.
func (f *FILE) ReadLine() (string, bool) {
	var line []byte
	for {
		if i := indexByte(f.rbuf, '\n'); i >= 0 {
			line = append(line, f.rbuf[:i]...)
			f.rbuf = f.rbuf[i+1:]
			return string(line), true
		}
		line = append(line, f.rbuf...)
		f.rbuf = f.rbuf[:0]
		if f.eof {
			return string(line), len(line) > 0
		}
		if e := f.fill(); e != sys.OK {
			return string(line), len(line) > 0
		}
		if f.eof && len(f.rbuf) == 0 {
			return string(line), len(line) > 0
		}
	}
}

// ReadAll reads the stream to end of file.
func (f *FILE) ReadAll() ([]byte, sys.Errno) {
	var out []byte
	bp := getXfer()
	defer putXfer(bp)
	buf := (*bp)[:stdioBuf]
	for {
		n, err := f.Read(buf)
		if err != sys.OK {
			return out, err
		}
		if n == 0 {
			return out, sys.OK
		}
		out = append(out, buf[:n]...)
	}
}

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}

// Printf formats to standard output.
func (t *T) Printf(format string, args ...any) { t.Stdout.Printf(format, args...) }

// Println writes operands and a newline to standard output.
func (t *T) Println(args ...any) { t.Stdout.Println(args...) }

// Fields splits s on blanks, as a tiny strtok helper for applications.
func Fields(s string) []string { return strings.Fields(s) }

package trace

import (
	"fmt"
	"strconv"
	"sync"

	"interpose/internal/core"
	"interpose/internal/sys"
)

// Trace lines are built with strconv appends into one pooled buffer and
// written with one staged write. fmt.Sprintf cost more CPU per line than
// the appends do, and a fresh buffer per line would be garbage on every
// call. Staging copies the line into the client's address space, so the
// buffer is free again as soon as the write is issued.

// linePool recycles line buffers, following libc's xferPool idiom.
var linePool = sync.Pool{New: func() any {
	b := make([]byte, 0, lineBufSize)
	return &b
}}

const (
	lineBufSize   = 256
	maxPooledLine = 4096 // longer buffers (huge argv) go to the GC
)

// startLine takes a buffer from the pool and begins a line for the
// calling process: "<pid>| ".
func startLine(c sys.Ctx) *[]byte {
	bp := linePool.Get().(*[]byte)
	b := strconv.AppendInt((*bp)[:0], int64(c.PID()), 10)
	*bp = append(b, "| "...)
	return bp
}

// writeLine writes the finished line to the trace descriptor and returns
// its buffer to the pool.
func (a *Agent) writeLine(c sys.Ctx, bp *[]byte) {
	core.DownWrite(c, a.fd, *bp)
	if cap(*bp) <= maxPooledLine {
		linePool.Put(bp)
	}
}

// appendf appends format expanded with args to b, byte for byte as
// fmt.Appendf would. It expands only what the call banners use — %d, %x,
// %#x, %#o, %q and %s on the int, int32, uint32 and string arguments they
// pass, %q on []string, and %% — and hands any other format (another verb, flag or
// width, an argument of another type, a missing or extra argument) to
// fmt whole.
func appendf(b []byte, format string, args ...any) []byte {
	start, n := len(b), 0
	for i := 0; i < len(format); {
		j := i
		for j < len(format) && format[j] != '%' {
			j++
		}
		b = append(b, format[i:j]...)
		if j == len(format) {
			break
		}
		j++ // past '%'
		sharp := j < len(format) && format[j] == '#'
		if sharp {
			j++
		}
		if j == len(format) {
			return fmt.Appendf(b[:start], format, args...)
		}
		if format[j] == '%' && !sharp {
			b = append(b, '%')
		} else {
			var ok bool
			if n < len(args) {
				b, ok = appendArg(b, format[j], sharp, args[n])
			}
			if !ok {
				return fmt.Appendf(b[:start], format, args...)
			}
			n++
		}
		i = j + 1
	}
	if n != len(args) {
		return fmt.Appendf(b[:start], format, args...)
	}
	return b
}

// appendArg expands one directive, reporting false if appendf does not
// handle the verb, flag and argument type together.
func appendArg(b []byte, verb byte, sharp bool, arg any) ([]byte, bool) {
	switch v := arg.(type) {
	case int:
		return appendInt(b, verb, sharp, int64(v))
	case int32:
		return appendInt(b, verb, sharp, int64(v))
	case uint32:
		return appendUint(b, verb, sharp, false, uint64(v))
	case string:
		switch {
		case sharp:
			return b, false
		case verb == 's':
			return append(b, v...), true
		case verb == 'q':
			return appendQuote(b, v), true
		}
	case []string:
		if sharp || verb != 'q' {
			return b, false
		}
		b = append(b, '[')
		for i, s := range v {
			if i > 0 {
				b = append(b, ' ')
			}
			b = appendQuote(b, s)
		}
		return append(b, ']'), true
	}
	return b, false
}

// appendQuote is strconv.AppendQuote with a fast path for what trace
// quotes most, paths: printable ASCII with no quote or backslash needs no
// escaping, and strconv decodes and checks every rune regardless.
func appendQuote(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

func appendInt(b []byte, verb byte, sharp bool, v int64) ([]byte, bool) {
	if v < 0 {
		return appendUint(b, verb, sharp, true, uint64(-v))
	}
	return appendUint(b, verb, sharp, false, uint64(v))
}

// appendUint expands %d, %x, %#x, %o or %#o of a magnitude u, negated if
// neg. As in fmt, the sign precedes the base prefix, and %#o adds no
// leading 0 to zero.
func appendUint(b []byte, verb byte, sharp, neg bool, u uint64) ([]byte, bool) {
	base := 10
	switch {
	case verb == 'd' && !sharp:
	case verb == 'x':
		base = 16
	case verb == 'o':
		base = 8
	default:
		return b, false
	}
	if neg {
		b = append(b, '-')
	}
	if sharp && base == 16 {
		b = append(b, "0x"...)
	}
	if sharp && base == 8 && u != 0 {
		b = append(b, '0')
	}
	return strconv.AppendUint(b, u, base), true
}

// Package mem implements the simulated 32-bit address spaces in which
// application processes live. Addresses passed through the system interface
// are offsets into one of these spaces; the kernel and interposition agents
// move data in and out with CopyIn/CopyOut, exactly as a real kernel would.
//
// An address space is sparse: pages are allocated on first touch within
// mapped regions. Two regions exist by convention — a data/heap segment
// growing up from DataBase under control of brk, and a stack segment ending
// at StackTop growing down.
//
// Pages are recycled, not left to the garbage collector: execve (Reset),
// a lowered break (SetBrk) and process exit (Release) return pages to the
// package's one-page buffer class (buf.go), from which first touches and
// fork (Clone) draw. The class serves every address space in the process
// — every world of a multi-tenant daemon — and file data and journals
// besides, so a page is zeroed on its way in: a recycled page reads as
// zeros exactly like a fresh one, and no space ever sees another's bytes.
// Pages never leave the package; every access is a copy made under the
// space's lock, so a pooled page is unreachable.
package mem

import (
	"sync"

	"interpose/internal/sys"
)

// Layout constants of the simulated machine.
const (
	PageSize  = sys.PageSize
	pageShift = 12

	// DataBase is the bottom of the data/heap segment. The page at zero is
	// never mapped, so null-pointer dereferences fault.
	DataBase sys.Word = 0x0010_0000
	// StackTop is one past the highest stack address.
	StackTop sys.Word = 0x7fff_0000
	// StackSize is the size of the stack segment.
	StackSize sys.Word = 1 << 20

	// EmuBase is the bottom of the emulator segment: the region in which
	// interposition agents — which logically live in their client's
	// address space, as on Mach 2.5 — stage strings and structures for
	// downcalls. It is always mapped.
	EmuBase sys.Word = 0x7fff_0000
	// EmuSize is the size of the emulator segment.
	EmuSize sys.Word = 64 * 1024
)

// getPage returns a zero page, recycled when one is free; putPage
// clears pg and returns it.
func getPage() *[PageSize]byte { return (*[PageSize]byte)(Alloc(PageSize, 0)) }

func putPage(pg *[PageSize]byte) { Free(pg[:]) }

// AS is one simulated address space.
type AS struct {
	mu    sync.Mutex
	pages map[sys.Word]*[PageSize]byte
	brk   sys.Word // current end of the data segment
	limit sys.Word // maximum brk (RLIMIT_DATA analog), 0 = default
}

// NewAS returns an empty address space with the break at DataBase and the
// stack segment mapped.
func NewAS() *AS {
	return &AS{
		pages: make(map[sys.Word]*[PageSize]byte),
		brk:   DataBase,
	}
}

// Reset discards all mappings, returning the space to its initial state
// and its pages to the pool. Used by execve, which clears its caller's
// address space.
func (a *AS) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.releaseLocked()
	a.brk = DataBase
}

// Release empties the space and returns its pages to the pool, at
// process exit. The space stays usable: a later touch maps a zero page,
// as a first touch always does.
func (a *AS) Release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.releaseLocked()
}

func (a *AS) releaseLocked() {
	for _, pg := range a.pages {
		putPage(pg)
	}
	clear(a.pages)
}

// Clone returns a copy of the address space, as done by fork.
func (a *AS) Clone() *AS {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := &AS{
		pages: make(map[sys.Word]*[PageSize]byte, len(a.pages)),
		brk:   a.brk,
		limit: a.limit,
	}
	for k, pg := range a.pages {
		cp := getPage()
		*cp = *pg
		c.pages[k] = cp
	}
	return c
}

// Brk returns the current program break.
func (a *AS) Brk() sys.Word {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.brk
}

// SetBrk moves the program break. Growing past the data limit or into the
// stack segment fails with ENOMEM; shrinking below DataBase fails with
// EINVAL. Pages beyond a lowered break return to the pool.
func (a *AS) SetBrk(addr sys.Word) sys.Errno {
	a.mu.Lock()
	defer a.mu.Unlock()
	if addr < DataBase {
		return sys.EINVAL
	}
	lim := a.limit
	if lim == 0 {
		lim = StackTop - StackSize
	}
	if addr > lim {
		return sys.ENOMEM
	}
	if addr < a.brk {
		// Release whole pages above the new break.
		for base, pg := range a.pages {
			if base >= pageUp(addr) && base < pageUp(a.brk) && base >= DataBase {
				delete(a.pages, base)
				putPage(pg)
			}
		}
	}
	a.brk = addr
	return sys.OK
}

// SetLimit sets the maximum data-segment size in bytes (RLIMIT_DATA).
func (a *AS) SetLimit(bytes sys.Word) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if bytes == 0 || bytes > StackTop-StackSize-DataBase {
		a.limit = 0
		return
	}
	a.limit = DataBase + bytes
}

// Pages returns the number of resident pages, for rusage accounting.
func (a *AS) Pages() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pages)
}

func pageUp(addr sys.Word) sys.Word {
	return (addr + PageSize - 1) &^ (PageSize - 1)
}

// valid reports whether [addr, addr+n) lies in a mapped region: below the
// break in the data segment, inside the stack segment, or inside the
// emulator segment. n may be zero.
func (a *AS) valid(addr sys.Word, n int) bool {
	if n < 0 {
		return false
	}
	end := uint64(addr) + uint64(n)
	if end > uint64(EmuBase)+uint64(EmuSize) {
		return false
	}
	e := sys.Word(end)
	inData := addr >= DataBase && e <= pageUp(a.brk)
	inStack := addr >= StackTop-StackSize && e <= StackTop
	inEmu := addr >= EmuBase && end <= uint64(EmuBase)+uint64(EmuSize)
	if n == 0 {
		return inData || inStack || inEmu || addr >= DataBase
	}
	return inData || inStack || inEmu
}

// page returns the page containing addr, allocating it if needed.
func (a *AS) page(addr sys.Word) *[PageSize]byte {
	base := addr &^ (PageSize - 1)
	pg := a.pages[base]
	if pg == nil {
		pg = getPage()
		a.pages[base] = pg
	}
	return pg
}

// CopyIn copies len(p) bytes out of the address space at addr into p.
func (a *AS) CopyIn(addr sys.Word, p []byte) sys.Errno {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.valid(addr, len(p)) {
		return sys.EFAULT
	}
	for len(p) > 0 {
		pg := a.page(addr)
		off := int(addr & (PageSize - 1))
		n := copy(p, pg[off:])
		p = p[n:]
		addr += sys.Word(n)
	}
	return sys.OK
}

// CopyOut copies p into the address space at addr.
func (a *AS) CopyOut(addr sys.Word, p []byte) sys.Errno {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.valid(addr, len(p)) {
		return sys.EFAULT
	}
	for len(p) > 0 {
		pg := a.page(addr)
		off := int(addr & (PageSize - 1))
		n := copy(pg[off:], p)
		p = p[n:]
		addr += sys.Word(n)
	}
	return sys.OK
}

// CopyInString copies a NUL-terminated string of at most max bytes
// (excluding the NUL) starting at addr. A string running past max bytes
// without a NUL yields ENAMETOOLONG; an unmapped address yields EFAULT.
func (a *AS) CopyInString(addr sys.Word, max int) (string, sys.Errno) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []byte
	for len(out) <= max {
		if !a.valid(addr, 1) {
			return "", sys.EFAULT
		}
		pg := a.page(addr)
		off := int(addr & (PageSize - 1))
		chunk := pg[off:]
		for i, b := range chunk {
			if b == 0 {
				if out == nil { // within one page: one copy, not two
					return string(chunk[:i]), sys.OK
				}
				return string(append(out, chunk[:i]...)), sys.OK
			}
			if len(out)+i+1 > max {
				return "", sys.ENAMETOOLONG
			}
		}
		out = append(out, chunk...)
		addr += sys.Word(len(chunk))
	}
	return "", sys.ENAMETOOLONG
}

// Word32 reads a 32-bit little-endian word at addr.
func (a *AS) Word32(addr sys.Word) (sys.Word, sys.Errno) {
	var b [4]byte
	if e := a.CopyIn(addr, b[:]); e != sys.OK {
		return 0, e
	}
	return sys.Word(b[0]) | sys.Word(b[1])<<8 | sys.Word(b[2])<<16 | sys.Word(b[3])<<24, sys.OK
}

// SetWord32 writes a 32-bit little-endian word at addr.
func (a *AS) SetWord32(addr sys.Word, v sys.Word) sys.Errno {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	return a.CopyOut(addr, b[:])
}

// Package libc is the userland runtime of the simulated machine: the C
// library that application programs link against. It provides raw system
// call access, a heap allocator over brk, stdio, process and signal
// helpers, and program startup (argument decoding).
//
// Applications written against libc interact with the world only through
// the system interface, so the same program image runs unmodified under
// any stack of interposition agents — exactly the transparency property
// the toolkit depends on.
package libc

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"interpose/internal/image"
	"interpose/internal/sys"
)

// T is the per-process C-library state. A T is created at program start
// (and afresh in fork children and after exec); it is not safe for use
// from multiple goroutines, matching the single-threaded processes of the
// era.
type T struct {
	p image.Proc

	// Program arguments and environment, decoded from the exec stack.
	Args []string
	Env  []string

	// Heap allocator state. Block payloads live in the simulated address
	// space; the bookkeeping lives here, playing the role of the
	// allocator's in-band metadata.
	brk     sys.Word
	free    []block               // free blocks, ascending by address
	sizes   map[sys.Word]sys.Word // addr → size of allocated blocks
	scratch sys.Word              // small fixed arena for syscall marshalling
	ioBuf   sys.Word              // staging buffer for Read/Write
	ioCap   sys.Word

	handlers  map[sys.Word]func(*T, int) // signal handler token → function
	nextToken sys.Word

	Stdin  *FILE
	Stdout *FILE
	Stderr *FILE

	atexit []func(*T)
}

// scratchSize is the size of the syscall marshalling arena: two paths plus
// a struct-sized tail.
const scratchSize = 2*sys.PathMax + 512

// Main wraps an application main function as an image entry point,
// providing C-runtime startup and exit.
func Main(fn func(t *T) int) image.Entry {
	return func(p image.Proc) {
		t := Attach(p)
		t.Exit(fn(t))
	}
}

// Attach builds the C-library state for a process that just entered a
// program image (at exec or in a fresh fork child continuation).
func Attach(p image.Proc) *T {
	t := &T{
		p:         p,
		sizes:     make(map[sys.Word]sys.Word),
		handlers:  make(map[sys.Word]func(*T, int)),
		nextToken: 0x1000,
	}
	argv, envp, err := image.ReadStack(p, p.InitialSP())
	if err == sys.OK {
		t.Args, t.Env = argv, envp
	}
	rv, e := t.Syscall(sys.SYS_brk, 0)
	if e == sys.OK {
		t.brk = rv[0]
	}
	t.scratch = t.Malloc(scratchSize)
	t.Stdin = &FILE{t: t, fd: 0}
	t.Stdout = &FILE{t: t, fd: 1, buffered: true, lineBuffered: true}
	t.Stderr = &FILE{t: t, fd: 2}
	p.SetSignalDispatcher(t.dispatchSignal)
	return t
}

// snapshot captures the C-library state for transfer into a fork child.
// It must be taken immediately before the fork system call so that it
// matches the address-space image the kernel copies: the parent's heap
// layout at fork time is exactly the child's heap layout.
func (t *T) snapshot() *T {
	return &T{
		Args:      append([]string(nil), t.Args...),
		Env:       append([]string(nil), t.Env...),
		brk:       t.brk,
		free:      slices.Clone(t.free),
		sizes:     maps.Clone(t.sizes),
		scratch:   t.scratch,
		ioBuf:     t.ioBuf,
		ioCap:     t.ioCap,
		handlers:  maps.Clone(t.handlers),
		nextToken: t.nextToken,
	}
}

// attachChild completes a snapshot into a live child C library.
func attachChild(snap *T, p image.Proc) *T {
	t := snap
	t.p = p
	t.Stdin = &FILE{t: t, fd: 0}
	t.Stdout = &FILE{t: t, fd: 1, buffered: true, lineBuffered: true}
	t.Stderr = &FILE{t: t, fd: 2}
	p.SetSignalDispatcher(t.dispatchSignal)
	return t
}

// Proc exposes the underlying machine process (rarely needed by programs).
func (t *T) Proc() image.Proc { return t.p }

// Syscall issues a raw system call with numeric arguments.
func (t *T) Syscall(num int, args ...sys.Word) (sys.Retval, sys.Errno) {
	var a sys.Args
	copy(a[:], args)
	return t.p.Syscall(num, a)
}

// Exit flushes stdio, runs atexit hooks, and terminates the process.
// It does not return.
func (t *T) Exit(code int) {
	for i := len(t.atexit) - 1; i >= 0; i-- {
		t.atexit[i](t)
	}
	t.Stdout.Flush()
	t.Stdout.release()
	t.Stderr.Flush()
	t.Syscall(sys.SYS_exit, sys.Word(code))
	// Invariant: SYS_exit terminates the process goroutine by unwind and
	// never returns; this panic only fires if the kernel's exit path is
	// broken, which no guest input can cause.
	panic("libc: exit returned")
}

// AtExit registers fn to run at normal process exit, last first.
func (t *T) AtExit(fn func(*T)) { t.atexit = append(t.atexit, fn) }

// Heap allocator: first fit with coalescing by address.

const allocAlign = 8

// block is one free heap block.
type block struct{ addr, size sys.Word }

// freeIndex returns the position of the first free block at or above addr.
func (t *T) freeIndex(addr sys.Word) int {
	return sort.Search(len(t.free), func(i int) bool { return t.free[i].addr >= addr })
}

// Malloc allocates n bytes in the process address space. It aborts the
// process on heap exhaustion (n of zero returns a valid unique address).
func (t *T) Malloc(n sys.Word) sys.Word {
	a, err := t.Alloc(n)
	if err != sys.OK {
		t.Stderr.WriteString("out of memory\n")
		t.Exit(127)
	}
	return a
}

// Alloc allocates n bytes, reporting failure instead of aborting.
func (t *T) Alloc(n sys.Word) (sys.Word, sys.Errno) {
	if n == 0 {
		n = 1
	}
	n = (n + allocAlign - 1) &^ (allocAlign - 1)
	// First fit over free blocks, lowest address first for determinism.
	for i, b := range t.free {
		if b.size < n {
			continue
		}
		if b.size > n {
			// The remainder keeps the block's place in address order.
			t.free[i] = block{b.addr + n, b.size - n}
		} else {
			t.free = slices.Delete(t.free, i, i+1)
		}
		t.sizes[b.addr] = n
		return b.addr, sys.OK
	}
	// Grow the break.
	grow := n
	if grow < sys.PageSize {
		grow = sys.PageSize
	}
	base := t.brk
	if _, err := t.Syscall(sys.SYS_brk, base+grow); err != sys.OK {
		return 0, sys.ENOMEM
	}
	t.brk = base + grow
	if grow > n {
		t.free = slices.Insert(t.free, t.freeIndex(base+n), block{base + n, grow - n})
	}
	t.sizes[base] = n
	return base, sys.OK
}

// Free releases an allocation made by Alloc/Malloc.
func (t *T) Free(addr sys.Word) {
	size, ok := t.sizes[addr]
	if !ok {
		return
	}
	delete(t.sizes, addr)
	// Coalesce with an adjacent following free block.
	i := t.freeIndex(addr)
	if i < len(t.free) && t.free[i].addr == addr+size {
		t.free[i] = block{addr, size + t.free[i].size}
		return
	}
	t.free = slices.Insert(t.free, i, block{addr, size})
}

// CString copies s into the address space as a NUL-terminated string.
// The result must be released with Free.
func (t *T) CString(s string) sys.Word {
	a := t.Malloc(sys.Word(len(s) + 1))
	b := append([]byte(s), 0)
	t.p.CopyOut(a, b)
	return a
}

// GoString reads a NUL-terminated string from the address space.
func (t *T) GoString(addr sys.Word) string {
	s, _ := t.p.CopyInString(addr, sys.ArgMax)
	return s
}

// pathScratch marshals up to two pathname arguments into the scratch
// arena, returning their addresses.
func (t *T) pathScratch(p1, p2 string) (sys.Word, sys.Word, sys.Errno) {
	if len(p1) >= sys.PathMax || len(p2) >= sys.PathMax {
		return 0, 0, sys.ENAMETOOLONG
	}
	a1 := t.scratch
	a2 := t.scratch + sys.PathMax
	if e := t.p.CopyOut(a1, append([]byte(p1), 0)); e != sys.OK {
		return 0, 0, e
	}
	if p2 != "" {
		if e := t.p.CopyOut(a2, append([]byte(p2), 0)); e != sys.OK {
			return 0, 0, e
		}
	}
	return a1, a2, sys.OK
}

// structScratch returns the scratch tail used for struct in/out arguments.
func (t *T) structScratch() sys.Word { return t.scratch + 2*sys.PathMax }

// ensureIOBuf guarantees a staging buffer of at least n bytes and returns
// its address.
func (t *T) ensureIOBuf(n int) sys.Word {
	if sys.Word(n) <= t.ioCap && t.ioBuf != 0 {
		return t.ioBuf
	}
	if t.ioBuf != 0 {
		t.Free(t.ioBuf)
	}
	capn := sys.Word(n)
	if capn < sys.PageSize {
		capn = sys.PageSize
	}
	t.ioBuf = t.Malloc(capn)
	t.ioCap = capn
	return t.ioBuf
}

// Errorf formats a message to stderr, prefixed by the program name.
func (t *T) Errorf(format string, args ...any) {
	prog := "?"
	if len(t.Args) > 0 {
		prog = t.Args[0]
	}
	t.Stderr.WriteString(prog + ": " + fmt.Sprintf(format, args...) + "\n")
}

// Getenv looks up an environment variable.
func (t *T) Getenv(key string) string {
	for _, kv := range t.Env {
		if len(kv) > len(key) && kv[:len(key)] == key && kv[len(key)] == '=' {
			return kv[len(key)+1:]
		}
	}
	return ""
}

// Checkpoint lets the system deliver pending signals during long
// computations that make no system calls.
func (t *T) Checkpoint() { t.p.Yield() }

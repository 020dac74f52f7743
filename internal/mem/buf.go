package mem

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Recycled buffers. One size-classed allocator serves every byte a world
// owns and gives back: address-space pages, file data (vfs) and the
// in-memory journal (journal). The classes are the powers of two from
// MinClass (one page) to MaxClass, and each is a sync.Pool, which the
// garbage collector drains over two collections, so an idle class holds
// nothing for long. Every buffer is cleared when it is returned: one
// class serves every world in the process, so a recycled buffer reads as
// zeros exactly like a fresh one and no world sees another's bytes.
//
// A caller returns only an array it holds the only reference to, and
// never touches it again; a pool holds its first byte, from which the
// class size recovers the whole array.

// The class bounds.
const (
	MinClass = PageSize
	MaxClass = 1 << maxShift

	maxShift = 20
)

var classes [maxShift - pageShift + 1]sync.Pool

// class returns the index of the smallest class of at least n bytes, or
// -1 past MaxClass.
func class(n int) int {
	if n > MaxClass {
		return -1
	}
	if n <= MinClass {
		return 0
	}
	return bits.Len(uint(n-1)) - pageShift
}

// take returns a free buffer of class i at its full length, or nil.
func take(i int) []byte {
	p, _ := classes[i].Get().(*byte)
	if p == nil {
		return nil
	}
	return unsafe.Slice(p, MinClass<<i)
}

// Alloc returns a zeroed buffer of length n whose capacity is the class
// at or above max(n, c): a recycled one when one is free, a fresh one
// otherwise. Past MaxClass it is a plain allocation of capacity
// max(n, c), which Free leaves to the garbage collector.
func Alloc(n, c int) []byte {
	c = max(n, c)
	i := class(c)
	if i < 0 {
		return make([]byte, n, c)
	}
	if b := take(i); b != nil {
		return b[:n]
	}
	return make([]byte, n, MinClass<<i)
}

// Recycled returns a zeroed buffer of length n from the class at or
// above n if one is free, and nil otherwise: it never allocates.
func Recycled(n int) []byte {
	if i := class(n); i >= 0 {
		if b := take(i); b != nil {
			return b[:n]
		}
	}
	return nil
}

// Free clears b's whole array and returns it to its class, reporting
// whether it did: an array whose capacity is not a class size is left to
// the garbage collector. The caller must hold the only reference to the
// array.
func Free(b []byte) bool {
	c := cap(b)
	if c < MinClass || c > MaxClass || c&(c-1) != 0 {
		return false
	}
	b = b[:c]
	clear(b)
	classes[class(c)].Put(unsafe.SliceData(b))
	return true
}

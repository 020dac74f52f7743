package libc

import (
	"math/rand"
	"sort"
	"testing"

	"interpose/internal/image"
	"interpose/internal/kernel"
	"interpose/internal/sys"
)

// refHeap is the allocator's specification: first fit over free blocks
// kept in a map, scanned in ascending address order, coalescing a freed
// block with the free block that follows it.
type refHeap struct {
	brk   sys.Word
	free  map[sys.Word]sys.Word
	sizes map[sys.Word]sys.Word
}

func (h *refHeap) alloc(n sys.Word) sys.Word {
	if n == 0 {
		n = 1
	}
	n = (n + allocAlign - 1) &^ (allocAlign - 1)
	addrs := make([]sys.Word, 0, len(h.free))
	for a := range h.free {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		size := h.free[a]
		if size < n {
			continue
		}
		delete(h.free, a)
		if size > n {
			h.free[a+n] = size - n
		}
		h.sizes[a] = n
		return a
	}
	grow := max(n, sys.PageSize)
	base := h.brk
	h.brk += grow
	if grow > n {
		h.free[base+n] = grow - n
	}
	h.sizes[base] = n
	return base
}

func (h *refHeap) release(addr sys.Word) {
	size, ok := h.sizes[addr]
	if !ok {
		return
	}
	delete(h.sizes, addr)
	if next, ok := h.free[addr+size]; ok {
		delete(h.free, addr+size)
		size += next
	}
	h.free[addr] = size
}

// TestAllocMatchesFirstFit drives the allocator and its specification
// through one seeded Alloc/Free sequence: every address must agree, since
// guest addresses reach agent output (the trace agent prints them).
func TestAllocMatchesFirstFit(t *testing.T) {
	reg := image.NewRegistry()
	reg.Register("main", Main(func(lt *T) int {
		ref := &refHeap{brk: lt.brk, free: map[sys.Word]sys.Word{}, sizes: map[sys.Word]sys.Word{}}
		for _, b := range lt.free {
			ref.free[b.addr] = b.size
		}
		for a, n := range lt.sizes {
			ref.sizes[a] = n
		}
		rng := rand.New(rand.NewSource(1))
		var live []sys.Word
		for i := 0; i < 5000; i++ {
			if len(live) > 0 && rng.Intn(5) < 2 {
				j := rng.Intn(len(live))
				lt.Free(live[j])
				ref.release(live[j])
				live = append(live[:j], live[j+1:]...)
				continue
			}
			n := sys.Word(rng.Intn(300))
			if rng.Intn(20) == 0 {
				n = sys.Word(rng.Intn(3 * sys.PageSize))
			}
			got, want := lt.Malloc(n), ref.alloc(n)
			if got != want {
				t.Errorf("op %d: Malloc(%d) = %#x, first fit %#x", i, n, got, want)
				return 1
			}
			live = append(live, got)
		}
		return 0
	}))
	k := kernel.New(reg)
	if err := k.InstallProgram("/bin/main", "main"); err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn("/bin/main", []string{"main"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := k.WaitExit(p); st != 0 {
		t.Fatalf("status %#x", st)
	}
}

package mem

import (
	"bytes"
	"testing"

	"interpose/internal/sys"
)

// model is a naive reference address space: a byte map with absent bytes
// reading zero, the break, and the set of resident pages.
type model struct {
	bytes map[sys.Word]byte
	pages map[sys.Word]bool
	brk   sys.Word
}

func newModel() *model {
	return &model{bytes: map[sys.Word]byte{}, pages: map[sys.Word]bool{}, brk: DataBase}
}

func (m *model) clone() *model {
	c := newModel()
	c.brk = m.brk
	for k, v := range m.bytes {
		c.bytes[k] = v
	}
	for k := range m.pages {
		c.pages[k] = true
	}
	return c
}

// empty drops every mapping, as Reset and Release do.
func (m *model) empty() {
	m.bytes = map[sys.Word]byte{}
	m.pages = map[sys.Word]bool{}
}

// valid reports whether [addr, addr+n), n > 0, lies wholly inside one
// segment: data below the page-rounded break, stack, or emulator.
func (m *model) valid(addr sys.Word, n int) bool {
	lo, hi := uint64(addr), uint64(addr)+uint64(n)
	within := func(base, end uint64) bool { return lo >= base && hi <= end }
	brkUp := (uint64(m.brk) + PageSize - 1) &^ (PageSize - 1)
	return within(uint64(DataBase), brkUp) ||
		within(uint64(StackTop-StackSize), uint64(StackTop)) ||
		within(uint64(EmuBase), uint64(EmuBase)+uint64(EmuSize))
}

func (m *model) touch(addr sys.Word, n int) {
	for i := 0; i < n; i++ {
		m.pages[(addr+sys.Word(i))&^(PageSize-1)] = true
	}
}

func (m *model) copyOut(addr sys.Word, p []byte) sys.Errno {
	if !m.valid(addr, len(p)) {
		return sys.EFAULT
	}
	m.touch(addr, len(p))
	for i, b := range p {
		m.bytes[addr+sys.Word(i)] = b
	}
	return sys.OK
}

func (m *model) copyIn(addr sys.Word, p []byte) sys.Errno {
	if !m.valid(addr, len(p)) {
		return sys.EFAULT
	}
	m.touch(addr, len(p))
	for i := range p {
		p[i] = m.bytes[addr+sys.Word(i)]
	}
	return sys.OK
}

func (m *model) copyInString(addr sys.Word, max int) (string, sys.Errno) {
	var out []byte
	for k := 0; ; k++ {
		a := addr + sys.Word(k)
		if !m.valid(a, 1) {
			return "", sys.EFAULT
		}
		m.touch(a, 1)
		b := m.bytes[a]
		if b == 0 {
			return string(out), sys.OK
		}
		if k+1 > max {
			return "", sys.ENAMETOOLONG
		}
		out = append(out, b)
	}
}

func (m *model) setBrk(addr sys.Word, limit sys.Word) sys.Errno {
	if addr < DataBase {
		return sys.EINVAL
	}
	if addr > limit {
		return sys.ENOMEM
	}
	up := func(a sys.Word) sys.Word { return (a + PageSize - 1) &^ (PageSize - 1) }
	if addr < m.brk {
		for pg := range m.pages {
			if pg >= DataBase && pg >= up(addr) && pg < up(m.brk) {
				delete(m.pages, pg)
				for i := sys.Word(0); i < PageSize; i++ {
					delete(m.bytes, pg+i)
				}
			}
		}
	}
	m.brk = addr
	return sys.OK
}

// fuzzInput hands out the fuzzer's bytes, reading zero once exhausted.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) u16() int { return int(in.byte()) | int(in.byte())<<8 }

// addr picks an address near a segment boundary, so accesses straddle
// pages, the break and segment ends.
func (in *fuzzInput) addr() sys.Word {
	bases := [...]sys.Word{0, DataBase, StackTop - StackSize, EmuBase - 2*PageSize, EmuBase + EmuSize - 2*PageSize}
	base := bases[int(in.byte())%len(bases)]
	return base + sys.Word(in.u16()%(16*PageSize))
}

// FuzzAS drives two to four address spaces through random operation
// sequences and checks every result against the naive model. Releases,
// resets and lowered breaks put pages in the shared pool that later
// touches and clones in other spaces draw from, so a recycled page that
// was not cleared shows up as a byte the model says is zero.
func FuzzAS(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		spaces := []*AS{NewAS(), NewAS()}
		models := []*model{newModel(), newModel()}
		for op := 0; op < 64 && len(in) > 0; op++ {
			i := int(in.byte()) % len(spaces)
			a, m := spaces[i], models[i]
			switch in.byte() % 7 {
			case 0: // CopyOut
				addr, n, seed := in.addr(), 1+in.u16()%(3*PageSize), in.byte()
				p := make([]byte, n)
				for j := range p {
					if j%5 != 4 { // every fifth byte NUL, for CopyInString
						p[j] = seed + byte(j)
					}
				}
				if got, want := a.CopyOut(addr, p), m.copyOut(addr, p); got != want {
					t.Fatalf("op %d: CopyOut(%#x, %d) = %v, model %v", op, addr, n, got, want)
				}
			case 1: // CopyIn
				addr, n := in.addr(), 1+in.u16()%(3*PageSize)
				got, want := make([]byte, n), make([]byte, n)
				ge, we := a.CopyIn(addr, got), m.copyIn(addr, want)
				if ge != we || !bytes.Equal(got, want) {
					t.Fatalf("op %d: CopyIn(%#x, %d) = %v, model %v (bytes equal %v)", op, addr, n, ge, we, bytes.Equal(got, want))
				}
			case 2: // CopyInString
				addr, max := in.addr(), in.u16()%(2*PageSize)
				gs, ge := a.CopyInString(addr, max)
				ws, we := m.copyInString(addr, max)
				if gs != ws || ge != we {
					t.Fatalf("op %d: CopyInString(%#x, %d) = %q %v, model %q %v", op, addr, max, gs, ge, ws, we)
				}
			case 3: // Clone, into a new slot or over another space
				c, cm := a.Clone(), m.clone()
				if len(spaces) < 4 {
					spaces, models = append(spaces, c), append(models, cm)
				} else {
					j := int(in.byte()) % len(spaces)
					spaces[j].Release()
					spaces[j], models[j] = c, cm
				}
			case 4:
				a.Reset()
				m.empty()
				m.brk = DataBase
			case 5:
				a.Release()
				m.empty()
			case 6: // SetBrk, within or just past the data segment
				addr := DataBase - PageSize + sys.Word(in.u16())*64
				if in.byte()%8 == 0 {
					addr = StackTop - StackSize + sys.Word(in.byte())
				}
				if got, want := a.SetBrk(addr), m.setBrk(addr, StackTop-StackSize); got != want {
					t.Fatalf("op %d: SetBrk(%#x) = %v, model %v", op, addr, got, want)
				}
			}
			a, m = spaces[i], models[i] // a Clone may have replaced slot i
			if a.Brk() != m.brk || a.Pages() != len(m.pages) {
				t.Fatalf("op %d: brk %#x pages %d, model brk %#x pages %d", op, a.Brk(), a.Pages(), m.brk, len(m.pages))
			}
		}
	})
}

package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"interpose/internal/sys"
)

// TestCopyRoundTrip: a copy that fits below the break round-trips; one
// that runs past it faults both ways.
func TestCopyRoundTrip(t *testing.T) {
	const brk = 64 * 1024
	a := NewAS()
	if e := a.SetBrk(DataBase + brk); e != sys.OK {
		t.Fatal(e)
	}
	f := func(data []byte, off uint16) bool {
		addr := DataBase + sys.Word(off)
		if int(off)+len(data) > brk {
			return a.CopyOut(addr, data) == sys.EFAULT && a.CopyIn(addr, make([]byte, len(data))) == sys.EFAULT
		}
		if e := a.CopyOut(addr, data); e != sys.OK {
			return false
		}
		got := make([]byte, len(data))
		if e := a.CopyIn(addr, got); e != sys.OK {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCopyCrossesPages(t *testing.T) {
	a := NewAS()
	a.SetBrk(DataBase + 3*PageSize)
	data := make([]byte, 2*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := DataBase + PageSize/2 // straddles two page boundaries
	if e := a.CopyOut(addr, data); e != sys.OK {
		t.Fatal(e)
	}
	got := make([]byte, len(data))
	if e := a.CopyIn(addr, got); e != sys.OK {
		t.Fatal(e)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page copy corrupted")
	}
}

func TestFaults(t *testing.T) {
	a := NewAS()
	a.SetBrk(DataBase + PageSize)
	buf := make([]byte, 16)
	cases := []sys.Word{
		0,                               // null page
		DataBase - PageSize,             // below data
		DataBase + 2*PageSize,           // beyond brk
		StackTop - StackSize - PageSize, // hole below stack
	}
	for _, addr := range cases {
		if e := a.CopyIn(addr, buf); e != sys.EFAULT {
			t.Errorf("CopyIn(%#x) = %v, want EFAULT", addr, e)
		}
		if e := a.CopyOut(addr, buf); e != sys.EFAULT {
			t.Errorf("CopyOut(%#x) = %v, want EFAULT", addr, e)
		}
	}
}

func TestStackSegment(t *testing.T) {
	a := NewAS()
	addr := StackTop - 256
	if e := a.CopyOut(addr, []byte("on the stack")); e != sys.OK {
		t.Fatal(e)
	}
	s, e := a.CopyInString(addr, 100)
	if e != sys.OK || s != "on the stack" {
		t.Fatalf("%v %q", e, s)
	}
	// Reading past StackTop faults.
	if e := a.CopyOut(StackTop-4, make([]byte, 8)); e == sys.OK {
		t.Fatal("write past StackTop allowed")
	}
}

func TestEmuSegment(t *testing.T) {
	a := NewAS()
	if e := a.CopyOut(EmuBase, []byte("agent scratch")); e != sys.OK {
		t.Fatal(e)
	}
	if e := a.CopyOut(EmuBase+EmuSize-4, make([]byte, 8)); e != sys.EFAULT {
		t.Fatalf("write past emu segment = %v", e)
	}
}

func TestBrkSemantics(t *testing.T) {
	a := NewAS()
	if a.Brk() != DataBase {
		t.Fatal("initial brk")
	}
	if e := a.SetBrk(DataBase - 1); e != sys.EINVAL {
		t.Fatalf("shrink below base = %v", e)
	}
	if e := a.SetBrk(StackTop); e != sys.ENOMEM {
		t.Fatalf("grow into stack = %v", e)
	}
	if e := a.SetBrk(DataBase + 10*PageSize); e != sys.OK {
		t.Fatal(e)
	}
	// Data beyond a lowered break is discarded; re-raising sees zeroes.
	a.CopyOut(DataBase+5*PageSize, []byte{1, 2, 3})
	a.SetBrk(DataBase + PageSize)
	a.SetBrk(DataBase + 10*PageSize)
	var b [3]byte
	a.CopyIn(DataBase+5*PageSize, b[:])
	if b != [3]byte{} {
		t.Fatalf("stale data after brk shrink/grow: %v", b)
	}
}

func TestDataLimit(t *testing.T) {
	a := NewAS()
	a.SetLimit(4 * PageSize)
	if e := a.SetBrk(DataBase + 8*PageSize); e != sys.ENOMEM {
		t.Fatalf("limit not enforced: %v", e)
	}
	if e := a.SetBrk(DataBase + 2*PageSize); e != sys.OK {
		t.Fatal(e)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewAS()
	a.SetBrk(DataBase + PageSize)
	a.CopyOut(DataBase, []byte("parent"))
	c := a.Clone()
	// The clone starts identical...
	s, _ := c.CopyInString(DataBase, 32)
	if s != "parent" {
		t.Fatalf("clone content %q", s)
	}
	// ...then diverges: writes to one do not affect the other.
	c.CopyOut(DataBase, []byte("child\x00"))
	s, _ = a.CopyInString(DataBase, 32)
	if s != "parent" {
		t.Fatalf("parent mutated by child write: %q", s)
	}
	a.CopyOut(DataBase, []byte("parent2"))
	s, _ = c.CopyInString(DataBase, 32)
	if s != "child" {
		t.Fatalf("child mutated by parent write: %q", s)
	}
}

func TestReset(t *testing.T) {
	a := NewAS()
	a.SetBrk(DataBase + PageSize)
	a.CopyOut(DataBase, []byte("old"))
	a.Reset()
	if a.Brk() != DataBase {
		t.Fatal("brk not reset")
	}
	if e := a.CopyIn(DataBase, make([]byte, 3)); e != sys.EFAULT {
		t.Fatalf("old mapping survives reset: %v", e)
	}
}

func TestCopyInString(t *testing.T) {
	a := NewAS()
	a.SetBrk(DataBase + PageSize)
	a.CopyOut(DataBase, append([]byte("hello"), 0))
	s, e := a.CopyInString(DataBase, 100)
	if e != sys.OK || s != "hello" {
		t.Fatalf("%v %q", e, s)
	}
	// Over-long string.
	if _, e := a.CopyInString(DataBase, 3); e != sys.ENAMETOOLONG {
		t.Fatalf("max not enforced: %v", e)
	}
	// Exactly max is fine.
	if s, e := a.CopyInString(DataBase, 5); e != sys.OK || s != "hello" {
		t.Fatalf("exact max: %v %q", e, s)
	}
	// Unmapped.
	if _, e := a.CopyInString(0, 100); e != sys.EFAULT {
		t.Fatalf("null string read: %v", e)
	}
}

func TestCopyInStringCrossesPage(t *testing.T) {
	a := NewAS()
	a.SetBrk(DataBase + 2*PageSize)
	addr := DataBase + PageSize - 3
	a.CopyOut(addr, append([]byte("straddle"), 0))
	s, e := a.CopyInString(addr, 100)
	if e != sys.OK || s != "straddle" {
		t.Fatalf("%v %q", e, s)
	}
}

func TestWord32(t *testing.T) {
	a := NewAS()
	a.SetBrk(DataBase + PageSize)
	if e := a.SetWord32(DataBase+4, 0xdeadbeef); e != sys.OK {
		t.Fatal(e)
	}
	v, e := a.Word32(DataBase + 4)
	if e != sys.OK || v != 0xdeadbeef {
		t.Fatalf("%v %#x", e, v)
	}
}

func TestPagesAccounting(t *testing.T) {
	a := NewAS()
	a.SetBrk(DataBase + 4*PageSize)
	if a.Pages() != 0 {
		t.Fatal("pages allocated eagerly")
	}
	a.CopyOut(DataBase, make([]byte, 2*PageSize+1))
	if got := a.Pages(); got != 3 {
		t.Fatalf("pages = %d, want 3", got)
	}
}

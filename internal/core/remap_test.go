package core_test

import (
	"fmt"
	"testing"

	"interpose/internal/core"
	"interpose/internal/sys"
)

// The paper's §2.3 numeric-layer example: "one range of system call
// numbers could be remapped to calls on a different range at this level."

// rangeRemapper shifts an unused call-number range down onto the native
// numbers, purely at the numeric layer.
type rangeRemapper struct {
	core.Numeric
	delta int
}

func newRangeRemapper(low, high, delta int) *rangeRemapper {
	a := &rangeRemapper{delta: delta}
	a.RegisterInterestRange(low, high)
	return a
}

func (a *rangeRemapper) Syscall(c sys.Ctx, num int, args sys.Args) (sys.Retval, sys.Errno) {
	return core.Down(c, num-a.delta, args)
}

func TestNumericRangeRemap(t *testing.T) {
	_, p := hostProc(t)
	// Map calls 1000+n onto native call n... our MaxSyscall is small, so
	// use the in-range hole 100..107 → 20..27 (getpid lives at 20).
	core.Install(p, newRangeRemapper(100, 107, 80))

	// The remapped number behaves as getpid.
	rv, err := p.Syscall(100, sys.Args{})
	if err != sys.OK || int(rv[0]) != p.PID() {
		t.Fatalf("remapped getpid: %d %v", rv[0], err)
	}
	// Native numbers still work.
	rv, err = p.Syscall(sys.SYS_getpid, sys.Args{})
	if err != sys.OK || int(rv[0]) != p.PID() {
		t.Fatalf("native getpid: %d %v", rv[0], err)
	}
	// Unassigned numbers outside the registered range stay unknown.
	if _, err := p.Syscall(150, sys.Args{}); err != sys.ENOSYS {
		t.Fatalf("unregistered number: %v", err)
	}
}

func TestInterestRangeBounds(t *testing.T) {
	a := &rangeRemapper{}
	a.RegisterInterestRange(-5, 3)
	a.RegisterInterestRange(sys.MaxSyscall-2, sys.MaxSyscall+5)
	set := a.Interests()
	if set.WantsAll() {
		t.Fatal("range registration set blanket interest")
	}
	var nums []int
	for n := -10; n < sys.MaxSyscall+10; n++ {
		if set.Wants(n) {
			nums = append(nums, n)
		}
	}
	want := []int{0, 1, 2, 3, sys.MaxSyscall - 2, sys.MaxSyscall - 1}
	if fmt.Sprint(nums) != fmt.Sprint(want) {
		t.Fatalf("nums = %v, want %v", nums, want)
	}
}

// TestInstallCopiesInterest: Install hands the layer a copy of the
// agent's interest set, so a number registered afterwards does not reach
// the installed process's dispatch plan (but does reach a later install).
func TestInstallCopiesInterest(t *testing.T) {
	_, p := hostProc(t)
	a := &rangeRemapper{}
	a.RegisterInterest(sys.SYS_getpid)
	core.Install(p, a)
	a.RegisterInterest(sys.SYS_getuid)
	if p.InterestMask(sys.SYS_getpid) != 1 {
		t.Fatalf("getpid mask = %#x, want 1", p.InterestMask(sys.SYS_getpid))
	}
	if m := p.InterestMask(sys.SYS_getuid); m != 0 {
		t.Fatalf("getuid registered after Install reached the plan: mask %#x", m)
	}
	core.Install(p, a)
	if m := p.InterestMask(sys.SYS_getuid); m != 2 {
		t.Fatalf("second install: getuid mask = %#x, want 2", m)
	}
}

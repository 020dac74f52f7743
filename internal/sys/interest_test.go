package sys

import "testing"

// TestInterestSet checks the interest bitset at its word edges, the
// out-of-range numbers registration ignores and blanket interest covers,
// and every signal.
func TestInterestSet(t *testing.T) {
	edges := []int{0, 63, 64, 127, 128, MaxSyscall - 1}
	for _, num := range edges {
		var s Interest
		s.RegisterInterest(num)
		for n := -1; n <= MaxSyscall; n++ {
			if got := s.Wants(n); got != (n == num) {
				t.Fatalf("registered %d: Wants(%d) = %v", num, n, got)
			}
		}
	}

	var s Interest
	s.RegisterInterest(-1)
	s.RegisterInterest(MaxSyscall)
	s.RegisterInterestRange(-3, -1)
	s.RegisterInterestRange(MaxSyscall, MaxSyscall+3)
	if s != (Interest{}) {
		t.Fatalf("out-of-range registration changed the set: %+v", s)
	}
	s.RegisterAll()
	if !s.WantsAll() {
		t.Fatal("RegisterAll not reported by WantsAll")
	}
	for _, n := range []int{-1, 0, MaxSyscall - 1, MaxSyscall} {
		if !s.Wants(n) {
			t.Fatalf("RegisterAll: Wants(%d) = false", n)
		}
	}

	for sig := 1; sig < NSIG; sig++ {
		var s Interest
		s.RegisterSignal(sig)
		for other := 1; other < NSIG; other++ {
			if got := s.WantsSignal(other); got != (other == sig) {
				t.Fatalf("registered signal %d: WantsSignal(%d) = %v", sig, other, got)
			}
		}
		if s.Wants(sig) {
			t.Fatalf("signal %d registered a system call", sig)
		}
	}
	var sigs Interest
	sigs.RegisterSignal(0)
	sigs.RegisterSignal(NSIG)
	if sigs != (Interest{}) {
		t.Fatalf("out-of-range signal changed the set: %+v", sigs)
	}
	sigs.RegisterAllSignals()
	for sig := 1; sig < NSIG; sig++ {
		if !sigs.WantsSignal(sig) {
			t.Fatalf("RegisterAllSignals: WantsSignal(%d) = false", sig)
		}
	}
}

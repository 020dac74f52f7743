package sys

// Interest is an interposition layer's registered interest: the system
// call numbers and signals it wants to see. An agent fills one in through
// the toolkit, installing the agent copies it into the kernel's emulation
// layer, and the kernel compiles it into the process's dispatch plan.
// The zero value wants nothing.
type Interest struct {
	nums    [(MaxSyscall + 63) / 64]uint64
	numsAll bool
	sigs    uint32
	sigsAll bool
}

// RegisterInterest registers interest in one system call number; a number
// outside [0, MaxSyscall) is ignored.
func (s *Interest) RegisterInterest(num int) {
	if num >= 0 && num < MaxSyscall {
		s.nums[num/64] |= 1 << uint(num%64)
	}
}

// RegisterInterestRange registers interest in the numbers [low, high].
func (s *Interest) RegisterInterestRange(low, high int) {
	for num := max(low, 0); num <= min(high, MaxSyscall-1); num++ {
		s.RegisterInterest(num)
	}
}

// RegisterAll registers interest in every system call number, including
// numbers outside [0, MaxSyscall).
func (s *Interest) RegisterAll() { s.numsAll = true }

// RegisterSignal registers interest in one incoming signal; a signal
// outside [1, NSIG) is ignored.
func (s *Interest) RegisterSignal(sig int) {
	if sig > 0 && sig < NSIG {
		s.sigs |= SigMask(sig)
	}
}

// RegisterAllSignals registers interest in every incoming signal.
func (s *Interest) RegisterAllSignals() { s.sigsAll = true }

// WantsAll reports whether RegisterAll was called.
func (s *Interest) WantsAll() bool { return s.numsAll }

// Wants reports whether call number num is of interest.
func (s *Interest) Wants(num int) bool {
	return s.numsAll || (num >= 0 && num < MaxSyscall && s.nums[num/64]&(1<<uint(num%64)) != 0)
}

// WantsSignal reports whether signal sig is of interest.
func (s *Interest) WantsSignal(sig int) bool {
	return s.sigsAll || s.sigs&SigMask(sig) != 0
}

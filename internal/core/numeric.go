package core

import "interpose/internal/sys"

// Numeric is the numeric system call layer: the lowest toolkit layer used
// directly by agents. It presents the system interface as a single entry
// point accepting vectors of untyped numeric arguments, with per-number
// interest registration.
//
// An agent embeds Numeric, registers the numbers it wants through the
// embedded sys.Interest (RegisterInterest, RegisterInterestRange,
// RegisterAll, RegisterSignal, RegisterAllSignals), and overrides
// Syscall (the whole entry point). The default Syscall takes the default
// action: it passes the call to the next-lower instance of the system
// interface unchanged.
type Numeric struct {
	sys.Interest
}

// Interests implements Agent.
func (n *Numeric) Interests() sys.Interest { return n.Interest }

// Syscall implements sys.Handler with the default action: pass the call
// down unchanged.
func (n *Numeric) Syscall(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
	return Down(c, num, a)
}

// Signal implements sys.SignalInterposer with the default action: deliver
// the signal unchanged.
func (n *Numeric) Signal(c sys.Ctx, sig int, code int) int { return sig }

// Interface checks.
var (
	_ Agent                = (*Numeric)(nil)
	_ sys.SignalInterposer = (*Numeric)(nil)
)

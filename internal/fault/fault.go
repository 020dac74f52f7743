// Package fault implements deterministic, seeded fault injection at the
// system interface. A Plan is a small rule language — per-syscall-number
// and per-path-prefix rules that fail a call with a given errno, truncate
// a read or write to N bytes, delay the call by simulated ticks, or
// deliver a signal to the caller mid-call, each with a probability — and
// an Injector applies a plan to a live call stream.
//
// Decisions are a pure function of (seed, pid, call number, per-(pid,call)
// sequence number, rule index): no shared random stream exists, so the
// interleaving of concurrent processes cannot perturb any one process's
// fault sequence, and the same seed with the same plan replays the same
// byte-identical fault log on a deterministic workload.
//
// The same Injector serves both surfaces: the faulty interposition agent
// (a symbolic-layer agent any stack can compose) and the kernel-side
// injector hook installed with kernel.SetInjector, which injects below all
// agents.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"interpose/internal/sys"
	"interpose/internal/telemetry"
)

// Effect is what a fired rule does to the call.
type Effect int

const (
	// EffectErrno satisfies the call immediately with the rule's errno.
	EffectErrno Effect = iota
	// EffectShort truncates a read/write count argument to N bytes and
	// lets the call proceed — a short transfer.
	EffectShort
	// EffectDelay sleeps the caller for N simulated ticks (1ms each)
	// before the call proceeds.
	EffectDelay
	// EffectSignal posts the rule's signal to the caller mid-call, then
	// lets the call proceed (typically surfacing as EINTR from sleeps).
	EffectSignal
	// EffectPanic panics inside the injection site — a deterministic
	// stand-in for a bug in agent code, for exercising the kernel's
	// supervision (panic containment and circuit breakers). Injected
	// kernel-side, below all agents, the panic is NOT supervised and
	// kills the process like any kernel bug would.
	EffectPanic
	// EffectHang blocks the call for the rule's wall-clock duration and
	// then fails it with EINTR — a stuck layer, for exercising hang
	// detection (worldd's session watchdog). It does not proceed below
	// after the sleep.
	EffectHang
	// EffectCrash kills the whole world at this call: the crash callback
	// (OnCrash) freezes the journal at its current durable prefix and the
	// caller — along with every other process — dies with SIGKILL. The
	// call itself fails with EINTR and never reaches the kernel, exactly
	// like a machine losing power mid-syscall.
	EffectCrash
	// EffectTorn is EffectCrash with a half-written final journal sector:
	// the crash callback tears the rule's N bytes off the journal tail
	// before freezing, exercising torn-tail detection on recovery.
	EffectTorn
)

// Rule is one fault rule: a call/path filter plus an effect and its
// firing probability.
type Rule struct {
	Call   int    // syscall number, or -1 to match any pathname call
	Prefix string // pathname prefix filter; "" matches any call
	Effect Effect
	Err    sys.Errno     // EffectErrno
	N      int           // EffectShort byte limit, EffectDelay tick count
	Sig    int           // EffectSignal signal number
	Dur    time.Duration // EffectHang block duration
	Prob   float64       // firing probability in (0, 1]
}

// String renders the rule in the plan syntax it was parsed from.
func (r Rule) String() string {
	var key string
	switch {
	case r.Call >= 0 && r.Prefix != "":
		key = sys.SyscallName(r.Call) + ":" + r.Prefix
	case r.Call >= 0:
		key = sys.SyscallName(r.Call)
	default:
		key = "path:" + r.Prefix
	}
	var eff string
	switch r.Effect {
	case EffectErrno:
		eff = r.Err.Name()
	case EffectShort:
		eff = "short:" + strconv.Itoa(r.N)
	case EffectDelay:
		eff = "delay:" + strconv.Itoa(r.N)
	case EffectSignal:
		eff = "sig:" + sys.SignalName(r.Sig)
	case EffectPanic:
		eff = "panic"
	case EffectHang:
		eff = "hang:" + r.Dur.String()
	case EffectCrash:
		eff = "crash"
	case EffectTorn:
		eff = "torn:" + strconv.Itoa(r.N)
	}
	return fmt.Sprintf("%s=%s@%g", key, eff, r.Prob)
}

// Plan is a parsed fault plan: a seed and an ordered rule list. The first
// matching rule that fires wins for any given call.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// ParsePlan parses the comma-separated plan syntax:
//
//	seed=N                      decision seed (default 1)
//	CALL=EFFECT[@PROB]          rule on a syscall by name ("write=EIO@0.05")
//	CALL:/prefix=EFFECT[@PROB]  rule on a syscall limited to a path prefix
//	path:/prefix=EFFECT[@PROB]  rule on any pathname call under a prefix
//
// where EFFECT is an errno name ("EIO"), "short:N", "delay:N",
// "sig:NAME", "panic", "hang:DUR" (a Go duration, e.g. "hang:250ms"),
// "crash" (kill the world, journal frozen at its durable prefix), or
// "torn:N" (crash with N bytes torn off the journal tail), and PROB
// defaults to 1.
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{Seed: 1}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		i := strings.IndexByte(field, '=')
		if i < 0 {
			return nil, fmt.Errorf("fault: rule %q: want key=value", field)
		}
		key, val := field[:i], field[i+1:]
		if key == "seed" {
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: seed %q: %v", val, err)
			}
			p.Seed = n
			continue
		}
		r, err := parseRule(key, val)
		if err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, r)
	}
	if len(p.Rules) == 0 {
		return nil, fmt.Errorf("fault: plan %q has no rules", spec)
	}
	return p, nil
}

func parseRule(key, val string) (Rule, error) {
	r := Rule{Call: -1, Prob: 1}

	// Key: CALL, CALL:/prefix, or path:/prefix.
	name := key
	if i := strings.IndexByte(key, ':'); i >= 0 {
		name, r.Prefix = key[:i], key[i+1:]
		if !strings.HasPrefix(r.Prefix, "/") {
			return Rule{}, fmt.Errorf("fault: rule %q: prefix must be absolute", key)
		}
	}
	if name != "path" {
		num, ok := sys.SyscallByName(name)
		if !ok {
			return Rule{}, fmt.Errorf("fault: rule %q: unknown system call %q", key, name)
		}
		r.Call = num
	} else if r.Prefix == "" {
		return Rule{}, fmt.Errorf("fault: rule %q: path rule needs a prefix", key)
	}

	// Value: EFFECT[@PROB].
	eff := val
	if i := strings.LastIndexByte(val, '@'); i >= 0 {
		eff = val[:i]
		prob, err := strconv.ParseFloat(val[i+1:], 64)
		if err != nil || !(prob > 0 && prob <= 1) { // NaN fails too
			return Rule{}, fmt.Errorf("fault: rule %s=%s: probability must be in (0,1]", key, val)
		}
		r.Prob = prob
	}
	switch {
	case strings.HasPrefix(eff, "short:"):
		n, err := strconv.Atoi(eff[len("short:"):])
		if err != nil || n < 0 {
			return Rule{}, fmt.Errorf("fault: rule %s=%s: bad short count", key, val)
		}
		r.Effect, r.N = EffectShort, n
		if r.Call != sys.SYS_read && r.Call != sys.SYS_write {
			return Rule{}, fmt.Errorf("fault: rule %s=%s: short applies to read/write only", key, val)
		}
	case strings.HasPrefix(eff, "delay:"):
		n, err := strconv.Atoi(eff[len("delay:"):])
		if err != nil || n < 0 {
			return Rule{}, fmt.Errorf("fault: rule %s=%s: bad delay count", key, val)
		}
		r.Effect, r.N = EffectDelay, n
	case strings.HasPrefix(eff, "sig:"):
		sig, ok := signalByName(eff[len("sig:"):])
		if !ok {
			return Rule{}, fmt.Errorf("fault: rule %s=%s: unknown signal", key, val)
		}
		r.Effect, r.Sig = EffectSignal, sig
	case eff == "panic":
		r.Effect = EffectPanic
	case eff == "crash":
		r.Effect = EffectCrash
	case strings.HasPrefix(eff, "torn:"):
		n, err := strconv.Atoi(eff[len("torn:"):])
		if err != nil || n <= 0 {
			return Rule{}, fmt.Errorf("fault: rule %s=%s: bad torn byte count", key, val)
		}
		r.Effect, r.N = EffectTorn, n
	case strings.HasPrefix(eff, "hang:"):
		d, err := time.ParseDuration(eff[len("hang:"):])
		if err != nil || d <= 0 {
			return Rule{}, fmt.Errorf("fault: rule %s=%s: bad hang duration", key, val)
		}
		r.Effect, r.Dur = EffectHang, d
	default:
		errno, ok := sys.ErrnoByName(eff)
		if !ok {
			return Rule{}, fmt.Errorf("fault: rule %s=%s: unknown effect %q", key, val, eff)
		}
		r.Effect, r.Err = EffectErrno, errno
	}
	return r, nil
}

// signalByName resolves "SIGINT" or "INT" to a signal number.
func signalByName(name string) (int, bool) {
	for s := 1; s < sys.NSIG; s++ {
		n := sys.SignalName(s)
		if n == name || strings.TrimPrefix(n, "SIG") == name {
			return s, true
		}
	}
	return 0, false
}

// pathArgMask maps a syscall number to a bitmask of argument positions
// holding pathname pointers, for path-prefix rule matching.
var pathArgMask = func() [sys.MaxSyscall]uint8 {
	var m [sys.MaxSyscall]uint8
	for _, num := range []int{
		sys.SYS_open, sys.SYS_creat, sys.SYS_unlink, sys.SYS_chdir,
		sys.SYS_mknod, sys.SYS_chmod, sys.SYS_chown, sys.SYS_access,
		sys.SYS_stat, sys.SYS_lstat, sys.SYS_readlink, sys.SYS_execve,
		sys.SYS_chroot, sys.SYS_truncate, sys.SYS_mkdir, sys.SYS_rmdir,
		sys.SYS_utimes,
	} {
		m[num] = 1 << 0
	}
	m[sys.SYS_link] = 1<<0 | 1<<1
	m[sys.SYS_rename] = 1<<0 | 1<<1
	m[sys.SYS_symlink] = 1 << 1 // the created name; arg 0 is the target text
	return m
}()

// PathSyscalls returns the call numbers that carry a pathname argument —
// the interest set of a path-only rule.
func PathSyscalls() []int {
	var out []int
	for n, m := range pathArgMask {
		if m != 0 {
			out = append(out, n)
		}
	}
	return out
}

// Record is one injected fault, for logs and replay verification.
type Record struct {
	PID  int
	Call int
	Seq  uint64 // per-(pid,call) decision sequence number
	Rule int    // index into the plan's rule list
	Desc string // rendered rule, e.g. "write=EIO@0.05"
}

// String renders the record as one stable log line.
func (r Record) String() string {
	return fmt.Sprintf("pid %d %s #%d: %s", r.PID, sys.SyscallName(r.Call), r.Seq, r.Desc)
}

// Injector applies a plan to a live system call stream.
type Injector struct {
	plan *Plan

	// onCrash, when set, is fired exactly once by the first crash/torn
	// rule that triggers: it receives the torn byte count (0 for a clean
	// crash) and is expected to freeze the journal store and kill the
	// world (kernel.Crash).
	onCrash func(torn int)

	mu      sync.Mutex
	seq     map[seqKey]uint64
	log     []Record
	crashed bool
}

type seqKey struct{ pid, call int }

// NewInjector creates an injector for a parsed plan.
func NewInjector(p *Plan) *Injector {
	return &Injector{plan: p, seq: make(map[seqKey]uint64)}
}

// Plan returns the injector's plan (for interest registration).
func (in *Injector) Plan() *Plan { return in.plan }

// OnCrash installs the world-killing callback fired by crash/torn rules.
// Install it before the first process runs; an injector with crash rules
// but no callback fails the call with EINTR and otherwise does nothing.
func (in *Injector) OnCrash(fn func(torn int)) { in.onCrash = fn }

// Crashed reports whether a crash/torn rule has fired. Test harnesses
// use it to tell an injected world-kill from an organic failure and dump
// artifacts accordingly.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// Log returns a copy of the injected-fault log in injection order.
func (in *Injector) Log() []Record {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Record, len(in.log))
	copy(out, in.log)
	return out
}

// Count returns the number of faults injected so far.
func (in *Injector) Count() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.log)
}

// Summary renders per-rule injection counts, one line per rule.
func (in *Injector) Summary() string {
	counts := make(map[int]int)
	in.mu.Lock()
	for _, r := range in.log {
		counts[r.Rule]++
	}
	total := len(in.log)
	in.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "fault: %d injected (seed=%d)\n", total, in.plan.Seed)
	idxs := make([]int, 0, len(counts))
	for i := range counts {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		fmt.Fprintf(&b, "fault:   %6d × %s\n", counts[i], in.plan.Rules[i])
	}
	return b.String()
}

// InjectedPanic is the value a panic rule throws. The kernel's
// supervisor (when installed) contains it like any agent bug; the
// record identifies which decision fired, so contained-panic logs line
// up with the injector's own log under replay.
type InjectedPanic struct{ Record Record }

func (p *InjectedPanic) Error() string { return p.String() }

func (p *InjectedPanic) String() string {
	return "fault: injected panic: " + p.Record.String()
}

// splitmix64 is the decision hash: a well-mixed 64-bit permutation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decide reports whether rule idx fires for the seq'th decision of
// (pid, call). It is a pure function, so replay is exact regardless of
// scheduling.
func (in *Injector) decide(pid, call int, seq uint64, idx int) bool {
	h := splitmix64(in.plan.Seed ^ splitmix64(uint64(pid)<<32|uint64(uint32(call))) ^
		splitmix64(seq*0x2545f4914f6cdd1d+uint64(idx)))
	p := float64(h>>11) / (1 << 53)
	return p < in.plan.Rules[idx].Prob
}

// matches reports whether the rule's call/path filter accepts this call.
func (in *Injector) matches(c sys.Ctx, r Rule, num int, a sys.Args) bool {
	if r.Call >= 0 && r.Call != num {
		return false
	}
	if r.Prefix == "" {
		return r.Call >= 0
	}
	mask := uint8(0)
	if num >= 0 && num < sys.MaxSyscall {
		mask = pathArgMask[num]
	}
	if mask == 0 {
		return false
	}
	for bit := 0; bit < 2; bit++ {
		if mask&(1<<bit) == 0 {
			continue
		}
		path, err := c.CopyInString(a[bit], sys.PathMax)
		if err != sys.OK {
			continue
		}
		if path == r.Prefix || strings.HasPrefix(path, r.Prefix+"/") {
			return true
		}
	}
	return false
}

// telemetried is the capability of contexts that can reach the telemetry
// registry (kernel process contexts implement it).
type telemetried interface {
	Telemetry() *telemetry.Registry
}

// killer is the capability of posting a signal through the lowest instance
// of the system interface, for EffectSignal.
type killer interface {
	KernelSyscall(num int, a sys.Args) (sys.Retval, sys.Errno)
}

// Inject consults the plan for one system call. It returns the (possibly
// rewritten) arguments and, when handled is true, the result the call
// should return without reaching the instance below. When handled is
// false the call proceeds with the returned arguments.
func (in *Injector) Inject(c sys.Ctx, num int, a sys.Args) (out sys.Args, rv sys.Retval, err sys.Errno, handled bool) {
	out = a
	pid := c.PID()
	key := seqKey{pid, num}
	in.mu.Lock()
	seq := in.seq[key]
	in.seq[key] = seq + 1
	in.mu.Unlock()

	for idx, r := range in.plan.Rules {
		if !in.matches(c, r, num, a) {
			continue
		}
		if !in.decide(pid, num, seq, idx) {
			continue
		}
		rec := Record{PID: pid, Call: num, Seq: seq, Rule: idx, Desc: r.String()}
		in.mu.Lock()
		in.log = append(in.log, rec)
		in.mu.Unlock()

		switch r.Effect {
		case EffectErrno:
			in.note(c, num, rec, r.Err)
			return out, sys.Retval{}, r.Err, true
		case EffectPanic:
			in.note(c, num, rec, sys.EFAULT)
			panic(&InjectedPanic{Record: rec})
		case EffectHang:
			in.note(c, num, rec, sys.EINTR)
			time.Sleep(r.Dur)
			return out, sys.Retval{}, sys.EINTR, true
		case EffectCrash, EffectTorn:
			// Only the first crash fires: the world is already dying, and
			// a second Freeze/Crash from a racing process must not tear
			// the journal again.
			in.mu.Lock()
			first := !in.crashed
			in.crashed = true
			in.mu.Unlock()
			in.note(c, num, rec, sys.EINTR)
			if first && in.onCrash != nil {
				torn := 0
				if r.Effect == EffectTorn {
					torn = r.N
				}
				in.onCrash(torn)
			}
			// The dying caller sees EINTR; SIGKILL is already pending and
			// is delivered at syscall exit.
			return out, sys.Retval{}, sys.EINTR, true
		case EffectShort:
			if out[2] > sys.Word(r.N) {
				out[2] = sys.Word(r.N)
			}
			in.note(c, num, rec, sys.OK)
		case EffectDelay:
			in.note(c, num, rec, sys.OK)
			time.Sleep(time.Duration(r.N) * time.Millisecond)
		case EffectSignal:
			in.note(c, num, rec, sys.OK)
			if k, ok := c.(killer); ok {
				k.KernelSyscall(sys.SYS_kill, sys.Args{sys.Word(pid), sys.Word(r.Sig)})
			}
		}
		// Non-errno effects let the call proceed; one fired rule per call.
		return out, sys.Retval{}, sys.OK, false
	}
	return out, sys.Retval{}, sys.OK, false
}

// note counts the injection in telemetry and drops a flight-ring event, if
// a registry is reachable through the context.
func (in *Injector) note(c sys.Ctx, num int, rec Record, errno sys.Errno) {
	tp, ok := c.(telemetried)
	if !ok {
		return
	}
	r := tp.Telemetry()
	if r == nil {
		return
	}
	r.Counter("fault.injected").Add(1)
	r.Counter("fault." + sys.SyscallName(num)).Add(1)
	r.RecordFileEvent(rec.PID, "fault:"+rec.Desc, "", "", -1, int32(errno))
}

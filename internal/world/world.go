// Package world is the world-lifecycle layer: one declarative Spec
// describing a simulated machine — image set, agent stack, resource
// limits, breaker budgets, journal and checkpoint wiring, trace and
// telemetry options — and one lifecycle over it:
//
//	Boot → Attach → Exec (sessions) → Checkpoint → Close
//
// Before this layer existed the repository had four hand-rolled boot
// paths (apps.NewWorld, experiments.World, the crash table's world, and
// cmd/agentrun's flag wiring), each re-deriving the same sequencing
// rules: journal replay before the first program, fsck after every
// restore or replay, injector crash hooks freezing the journal store,
// supervisor installation, telemetry/tracer attachment. All of them are
// now thin callers of Boot.
//
// A world is built one of two ways, and both end in the same facility
// sequence (finishBoot): Boot builds the kernel from scratch (image
// registry, program installs, Setup hooks) or from a checkpoint; Fork
// makes a copy-on-reach overlay of a live world's frozen filesystem, at
// a cost independent of the tree. Boot is the host-side
// entry point (agentrun, experiments). The multi-tenant server
// (internal/worldd) boots once — a bare base world — and hosts every
// tenant and recovery rebuild as a Fork of it, thousands of worlds in
// one process, so Close must return a world to nothing: no goroutines, no
// host descriptors, no zombies — and must never disturb the parent it
// was forked from.
//
// The package deliberately does not import the application set: Spec
// carries a Register hook for the image registry and Setup hooks for
// world building, so internal/apps can layer its world on top of this
// package without an import cycle.
package world

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"interpose/internal/agents"
	"interpose/internal/core"
	"interpose/internal/fault"
	"interpose/internal/image"
	"interpose/internal/journal"
	"interpose/internal/kernel"
	"interpose/internal/sys"
	"interpose/internal/telemetry"
	"interpose/internal/trace"
)

// TraceSpec configures the causal span tracer. Durations travel as
// nanosecond integers on the wire (time.Duration's JSON encoding).
type TraceSpec struct {
	// Sample is the head-sampling probability in [0, 1].
	Sample float64 `json:"sample"`
	// Slow additionally retains unsampled calls at least this slow.
	Slow time.Duration `json:"slow_ns,omitempty"`
	// TailErrors retains unsampled failed calls.
	TailErrors bool `json:"tail_errors,omitempty"`
}

// SuperviseSpec configures the agent supervisor: the containment mode
// plus the per-tenant breaker budget. The zero budget fields select the
// kernel's documented defaults.
type SuperviseSpec struct {
	// Mode is "strict", "bypass", or "off"/"".
	Mode string `json:"mode"`
	// Errno names the errno a contained failure returns in strict mode
	// (default EFAULT).
	Errno string `json:"errno,omitempty"`
	// TripThreshold is the failure count that quarantines a layer.
	TripThreshold int `json:"trip_threshold,omitempty"`
	// Window bounds the sliding failure window (0 = pure count).
	Window time.Duration `json:"window_ns,omitempty"`
	// Cooldown is the quarantine time before a half-open probe
	// (0 = kernel default, negative = permanent quarantine).
	Cooldown time.Duration `json:"cooldown_ns,omitempty"`
}

// AdmissionSpec is a tenant's session admission budget. The world
// layer itself ignores it: a session-hosting server (worldd)
// enforces the caps at its front door, before a request ever reaches
// the world lock, so an over-subscribed tenant is shed with a retryable
// status instead of queueing unboundedly on the console.
type AdmissionSpec struct {
	// MaxSessions caps concurrent sessions for this world (0 = no cap).
	MaxSessions int `json:"max_sessions,omitempty"`
	// Rate is the sustained sessions-per-second refill of the tenant's
	// token bucket (0 = unlimited).
	Rate float64 `json:"rate,omitempty"`
	// Burst is the bucket depth (default: max(1, ceil(Rate))).
	Burst int `json:"burst,omitempty"`
}

// Spec declares a world. The JSON-visible fields form the wire spec a
// multi-tenant server accepts; the function-valued fields are host-side
// wiring the server fills in itself.
type Spec struct {
	// Name labels the world in logs and server tables.
	Name string `json:"name,omitempty"`

	// Register populates the image registry the world boots with.
	// Required: a world without programs cannot run sessions.
	Register func(*image.Registry) `json:"-"`

	// Setup hooks run in order on a freshly booted world (not on a
	// restore, whose filesystem already carries its state): bench
	// fixtures, source trees, extra files.
	Setup []func(*kernel.Kernel) error `json:"-"`

	// RestorePath boots from a checkpoint file instead of a fresh world.
	RestorePath string `json:"restore,omitempty"`
	// RestoreFrom boots from a checkpoint stream (host-side callers;
	// takes precedence over RestorePath).
	RestoreFrom io.Reader `json:"-"`

	// Agents is the agent stack, catalog specs as in `agentrun -a`,
	// first closest to the kernel; at most kernel.MaxLayers deep.
	Agents []string `json:"agents,omitempty"`

	// JournalPath attaches a write-ahead journal backed by this host
	// file; an existing file is replayed (torn tail cut) before the
	// first program runs. Host callers set a real path; the multi-tenant
	// server treats the wire value as a bare key and rewrites it to a
	// file inside its own state directory (see internal/worldd).
	JournalPath string `json:"journal,omitempty"`
	// JournalMem attaches an in-memory journal instead (tenants that
	// want the write-path semantics without host files).
	JournalMem bool `json:"journal_mem,omitempty"`

	// Telemetry installs a per-world telemetry registry.
	Telemetry bool `json:"telemetry,omitempty"`
	// Trace installs the causal span tracer.
	Trace *TraceSpec `json:"trace,omitempty"`
	// Supervise installs the agent supervisor with a per-world budget.
	Supervise *SuperviseSpec `json:"supervise,omitempty"`
	// Inject installs a kernel-side fault plan (fault DSL), below all
	// agent layers.
	Inject string `json:"inject,omitempty"`

	// Rlimits are resource budgets applied to every process the world
	// launches, by name: nofile, fsize, data, cpu, core, stack, rss.
	Rlimits map[string]uint64 `json:"rlimits,omitempty"`

	// Pool is accepted on the wire and ignored: every worldd world is
	// already an O(1) fork of the daemon's base. It goes at the next
	// benchmark change, whose specs still set it.
	Pool int `json:"pool,omitempty"`

	// Admission, when set, asks a session-hosting server (worldd) to
	// bound this tenant's session traffic: a concurrent-session cap and
	// a token-bucket rate limit. The world layer ignores the field.
	Admission *AdmissionSpec `json:"admission,omitempty"`

	// OnQuarantine, when set, observes supervisor quarantines.
	OnQuarantine func(layer string, stack []byte) `json:"-"`

	// Mirror, when set, receives a live copy of console output.
	Mirror io.Writer `json:"-"`
}

// ExecRequest is one session: a program run to completion in a world.
type ExecRequest struct {
	// Argv is the program and its arguments; a bare name resolves
	// under /bin.
	Argv []string `json:"argv"`
	// Feed is queued as console input before the program starts.
	Feed string `json:"feed,omitempty"`
	// Env overrides the default environment ("PATH=/bin:/usr/bin").
	Env []string `json:"env,omitempty"`
}

// ExecResult reports a finished session.
type ExecResult struct {
	// Status is the exit status when the program exited.
	Status int `json:"status"`
	// Signal names the fatal signal when the program was killed.
	Signal string `json:"signal,omitempty"`
	// Output is the console output produced during the session.
	Output string `json:"output"`
	// Elapsed is the wall-clock session time.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Exited reports whether the session's program exited (vs was killed).
func (r ExecResult) Exited() bool { return r.Signal == "" }

// World is a booted machine with its attached facilities. Sessions on
// one world are serialized by the world's own lock (the console is one
// terminal); distinct worlds are fully independent.
type World struct {
	spec Spec

	// dying is latched by Kill: the world is being torn down by a
	// supervisor-of-worlds and must fail new sessions fast instead of
	// queueing on the world lock behind a wedged one.
	dying atomic.Bool

	mu     sync.Mutex
	k      *kernel.Kernel
	reg    *telemetry.Registry
	tracer *trace.Tracer
	inj    *fault.Injector
	jstore journal.Store
	stack  []core.Agent
	insts  []*agents.Instance
	closed bool

	// Applied, Skipped, and Torn report journal recovery at boot: how
	// many records rolled forward, how many a restored checkpoint
	// already contained, and the torn tail (already cut from the store)
	// if the previous incarnation died mid-write.
	Applied int
	Skipped int
	Torn    *journal.Torn
}

// Replayed is the total journal records recovered at boot.
func (w *World) Replayed() int { return w.Applied + w.Skipped }

// freezer is the capability of journal stores that can be frozen at the
// instant of a crash (MemStore, FileStore).
type freezer interface{ Freeze(torn int) }

// Boot builds a world from its Spec and attaches every declared
// facility, in the one order that is correct for all callers:
//
//  1. boot the kernel — fresh (register images, install programs
//     sorted, run Setup hooks) or from a checkpoint;
//  2. replay and attach the journal (torn tail cut, writer sequenced
//     past the replayed prefix);
//  3. fsck-gate any recovered filesystem;
//  4. install telemetry, tracer, injector (crash hook freezing the
//     journal store), and supervisor;
//  5. construct the agent stack (Attach).
func Boot(spec Spec) (*World, error) {
	if spec.Register == nil {
		return nil, fmt.Errorf("world: spec %q has no image registry hook", spec.Name)
	}
	images := image.NewRegistry()
	spec.Register(images)

	w := &World{spec: spec}
	var err error
	switch {
	case spec.RestoreFrom != nil:
		w.k, err = kernel.Restore(images, spec.RestoreFrom)
	case spec.RestorePath != "":
		f, oerr := os.Open(spec.RestorePath)
		if oerr != nil {
			return nil, fmt.Errorf("world: restore: %w", oerr)
		}
		w.k, err = kernel.Restore(images, f)
		f.Close()
	default:
		w.k = kernel.New(images)
		// Programs are installed in sorted order so two boots assign
		// identical inode numbers throughout — a journal recorded
		// against one fresh world must replay exactly onto another.
		for _, name := range images.Names() {
			if err := w.k.InstallProgram("/bin/"+name, name); err != nil {
				return nil, fmt.Errorf("world: install %s: %w", name, err)
			}
		}
		for _, setup := range spec.Setup {
			if err := setup(w.k); err != nil {
				return nil, fmt.Errorf("world: setup: %w", err)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("world: boot: %w", err)
	}
	restored := spec.RestoreFrom != nil || spec.RestorePath != ""
	if err := w.finishBoot(restored); err != nil {
		return nil, err
	}
	return w, nil
}

// Fork clones a booted template into a new, independently bootable world
// without serializing through a checkpoint: the kernel is forked
// copy-on-reach (kernel.Fork → vfs.FS.Fork). The template's tree freezes
// once as an image and the child starts as an empty overlay on it, so
// the cost depends neither on how many inodes nor on how many bytes the
// template's filesystem holds. This is worldd's only construction path.
//
// The child gets the facilities spec declares — its own telemetry
// registry, tracer, injector, supervisor, journal, agent stack — wired
// by the same sequencing Boot uses. Setup hooks do not run (the forked
// filesystem already carries the template's state, exactly like a
// restore), and restore fields are refused: a fork's filesystem comes
// from its parent. spec.Register is not consulted either — the child
// shares the parent's image registry, which is immutable after boot.
//
// Forking seals the parent's journal epoch first (Commit), so a journal
// recorded by the parent replays onto the child as pure skips — the
// child carries the parent's applied-sequence watermark. A parent that
// never journaled (a bare template, worldd's base) is indistinguishable
// from a fresh boot to a journal: replaying a world's journal onto a
// fork of it recovers exactly what replaying onto a Boot would, which is
// how worldd rebuilds a crashed tenant.
func Fork(parent *World, spec Spec) (*World, error) {
	if spec.RestoreFrom != nil || spec.RestorePath != "" {
		return nil, fmt.Errorf("world: fork %q: cannot both fork and restore", spec.Name)
	}
	parent.mu.Lock()
	if parent.closed {
		parent.mu.Unlock()
		return nil, fmt.Errorf("world: fork %q: parent %s is closed", spec.Name, parent.spec.Name)
	}
	if parent.Crashed() {
		parent.mu.Unlock()
		return nil, fmt.Errorf("world: fork %q: parent %s crashed", spec.Name, parent.spec.Name)
	}
	if jw := parent.k.Journal(); jw != nil {
		if err := jw.Commit(); err != nil {
			parent.mu.Unlock()
			return nil, fmt.Errorf("world: fork: seal parent journal: %w", err)
		}
	}
	k, err := kernel.Fork(parent.k)
	parent.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("world: fork: %w", err)
	}
	w := &World{spec: spec, k: k}
	if err := w.finishBoot(false); err != nil {
		return nil, err
	}
	return w, nil
}

// finishBoot runs the facility half of the boot sequence on a world
// whose kernel already exists (freshly booted, restored, or forked):
// journal replay + attach, the fsck gate, telemetry, tracer, injector,
// supervisor, console mirror, and the agent stack — in the one order
// that is correct for all callers (see Boot).
func (w *World) finishBoot(restored bool) error {
	spec := w.spec

	// The journal attaches before anything runs. An existing file is
	// first replayed onto the world — onto the checkpoint on a restore
	// (the sequence watermark skips what the checkpoint already holds),
	// onto the fresh boot otherwise — so booting twice with the same
	// journal file recovers a crashed world and continues it.
	switch {
	case spec.JournalPath != "":
		st, data, jerr := journal.OpenFileStore(spec.JournalPath)
		if jerr != nil {
			return fmt.Errorf("world: journal: %w", jerr)
		}
		applied, skipped, torn, rerr := w.k.ReplayJournal(data)
		if rerr != nil {
			st.Close()
			return fmt.Errorf("world: journal replay: %w", rerr)
		}
		if torn != nil {
			if terr := st.TruncateTo(torn.Off); terr != nil {
				st.Close()
				return fmt.Errorf("world: journal: %w", terr)
			}
		}
		w.Applied, w.Skipped = applied, skipped
		w.Torn = torn
		jw := journal.NewWriter(st, 0)
		jw.StartAt(w.k.FS().JournalSeq() + 1)
		w.k.SetJournal(jw)
		w.jstore = st
	case spec.JournalMem:
		st := journal.NewMemStore(0)
		w.k.SetJournal(journal.NewWriter(st, 0))
		w.jstore = st
	}

	// The recovery verifier runs after every restore or replay: a world
	// that fails fsck must not be handed to programs.
	if restored || w.Replayed() > 0 {
		if bad := w.k.FS().Check(); len(bad) != 0 {
			w.releaseStore()
			return fmt.Errorf("world: recovered world fails fsck: %s", strings.Join(bad, "; "))
		}
	}

	if spec.Telemetry {
		w.reg = telemetry.NewRegistry()
		w.k.SetTelemetry(w.reg)
	}
	if t := spec.Trace; t != nil {
		w.tracer = trace.NewTracer(trace.Config{
			Sample:     t.Sample,
			Slow:       t.Slow,
			TailErrors: t.TailErrors,
		})
		w.k.SetSpanTracer(w.tracer)
	}
	if spec.Inject != "" {
		plan, perr := fault.ParsePlan(spec.Inject)
		if perr != nil {
			w.releaseStore()
			return fmt.Errorf("world: %w", perr)
		}
		w.inj = fault.NewInjector(plan)
		w.inj.OnCrash(func(torn int) {
			// The machine dies: the journal is frozen at its durable
			// prefix (minus any torn bytes) and every process killed.
			// What the store holds afterward is exactly what a recovery
			// may trust.
			if f, ok := w.jstore.(freezer); ok && f != nil {
				f.Freeze(torn)
			}
			w.k.Crash()
		})
		w.k.SetInjector(w.inj)
	}
	if s := spec.Supervise; s != nil {
		mode, supervised, merr := kernel.ParseSuperviseMode(s.Mode)
		if merr != nil {
			w.releaseStore()
			return fmt.Errorf("world: %w", merr)
		}
		if supervised {
			errno := sys.EFAULT
			if s.Errno != "" {
				e, ok := sys.ErrnoByName(s.Errno)
				if !ok {
					w.releaseStore()
					return fmt.Errorf("world: unknown supervise errno %q", s.Errno)
				}
				errno = e
			}
			w.k.SetSupervisor(kernel.NewSupervisor(w.k, kernel.SupervisorConfig{
				Mode:          mode,
				Errno:         errno,
				TripThreshold: s.TripThreshold,
				Window:        s.Window,
				Cooldown:      s.Cooldown,
				OnQuarantine:  spec.OnQuarantine,
			}))
		}
	}
	if spec.Mirror != nil {
		w.k.Console().Mirror(spec.Mirror)
	}

	if err := w.Attach(); err != nil {
		w.releaseStore()
		return err
	}
	return nil
}

// releaseStore closes a host-file journal store during failed boots.
func (w *World) releaseStore() {
	if c, ok := w.jstore.(io.Closer); ok && c != nil {
		c.Close()
	}
}

// Attach constructs the Spec's agent stack. Boot calls it; calling it
// again rebuilds the stack from the spec (fresh agent state for a world
// that wants per-session agents).
func (w *World) Attach() error {
	if n := len(w.spec.Agents); n > kernel.MaxLayers {
		return fmt.Errorf("world: attach: %d agents exceed the %d-layer stack cap", n, kernel.MaxLayers)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var stack []core.Agent
	var insts []*agents.Instance
	for _, spec := range w.spec.Agents {
		inst, err := agents.New(spec)
		if err != nil {
			return fmt.Errorf("world: attach: %w", err)
		}
		stack = append(stack, inst.Agent)
		insts = append(insts, inst)
	}
	w.stack, w.insts = stack, insts
	return nil
}

// Kernel returns the booted machine.
func (w *World) Kernel() *kernel.Kernel { return w.k }

// Telemetry returns the world's registry, or nil.
func (w *World) Telemetry() *telemetry.Registry { return w.reg }

// Tracer returns the world's span tracer, or nil.
func (w *World) Tracer() *trace.Tracer { return w.tracer }

// Injector returns the world's fault injector, or nil.
func (w *World) Injector() *fault.Injector { return w.inj }

// Stack returns the attached agent stack (first closest to the kernel).
func (w *World) Stack() []core.Agent { return w.stack }

// Spec returns the spec the world was booted from.
func (w *World) Spec() Spec { return w.spec }

// Crashed reports whether an injected fault killed the world.
func (w *World) Crashed() bool { return w.inj != nil && w.inj.Crashed() }

// ErrDying is the error new sessions see on a world that Kill has
// condemned. It is retryable by contract: the supervisor that killed
// the world is already rebuilding a replacement.
var ErrDying = errors.New("world is being recycled")

// Dying reports whether Kill has condemned the world.
func (w *World) Dying() bool { return w.dying.Load() }

// Kill condemns a wedged or broken world so Close can reclaim it: the
// dying latch makes new sessions fail fast with ErrDying, and every
// guest process is killed with an unmaskable SIGKILL — which is what
// unblocks a session stuck under the world lock (the process table
// lock, not the world lock, guards signal posting, so Kill never
// queues behind the session it is trying to break). Unlike an injected
// crash, Kill does not freeze the journal store: the follow-up Close
// still commits the pending group, so a journal-backed world killed by
// its supervisor recovers everything it had durably written. Kill is
// idempotent and safe from any goroutine.
func (w *World) Kill() {
	if !w.dying.CompareAndSwap(false, true) {
		return
	}
	w.k.Crash()
}

// Exec runs one session to completion: launch req.Argv under the
// world's agent stack with the spec's resource budgets applied, wait
// for it, and return its status and console output. Sessions on one
// world are serialized — the console is a single terminal and its
// captured output belongs to one session at a time.
func (w *World) Exec(req ExecRequest) (ExecResult, error) {
	// Fail fast before queueing on the world lock: a wedged session may
	// hold it until Kill's SIGKILL lands, and new arrivals must not pile
	// up behind it.
	if w.dying.Load() {
		return ExecResult{}, fmt.Errorf("world: %s: %w", w.spec.Name, ErrDying)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dying.Load() {
		return ExecResult{}, fmt.Errorf("world: %s: %w", w.spec.Name, ErrDying)
	}
	if w.closed {
		return ExecResult{}, fmt.Errorf("world: %s: exec on closed world", w.spec.Name)
	}
	if len(req.Argv) == 0 {
		return ExecResult{}, fmt.Errorf("world: exec: empty argv")
	}
	path := req.Argv[0]
	if !strings.HasPrefix(path, "/") {
		path = "/bin/" + path
	}
	env := req.Env
	if env == nil {
		env = []string{"PATH=/bin:/usr/bin"}
	}

	if req.Feed != "" {
		w.k.Console().Feed(req.Feed)
	}
	// A session is non-interactive: a program that outlives its queued
	// input sees end-of-file, not a hang. FeedEOF is sticky and
	// idempotent; later Feeds still reach readers.
	w.k.Console().FeedEOF()
	w.k.Console().TakeOutput()

	start := time.Now()
	p := w.k.NewProc()
	// Every failure between NewProc and a successful Start must retire
	// the published process, or each bad argv / bad rlimit a tenant sends
	// leaks a process table entry and its address space until Close.
	if err := p.OpenConsole(); err != nil {
		w.k.Discard(p)
		return ExecResult{}, fmt.Errorf("world: exec: console: %w", err)
	}
	for _, a := range w.stack {
		core.Install(p, a)
	}
	for name, lim := range w.spec.Rlimits {
		res, ok := kernel.RlimitByName(name)
		if !ok {
			w.k.Discard(p)
			return ExecResult{}, fmt.Errorf("world: exec: unknown rlimit %q", name)
		}
		if err := p.SetRlimit(res, sys.Rlimit{Cur: sys.Word(lim), Max: sys.Word(lim)}); err != nil {
			w.k.Discard(p)
			return ExecResult{}, fmt.Errorf("world: exec: %w", err)
		}
	}
	if err := p.Start(path, req.Argv, env); err != nil {
		w.k.Discard(p)
		return ExecResult{}, fmt.Errorf("world: exec %v: %w", req.Argv, err)
	}
	status := w.k.WaitExit(p)

	res := ExecResult{
		Output:  w.k.Console().TakeOutput(),
		Elapsed: time.Since(start),
	}
	if sys.WIfExited(status) {
		res.Status = sys.WExitStatus(status)
	} else {
		res.Signal = sys.SignalName(sys.WTermSig(status))
		res.Status = 128 + sys.WTermSig(status)
	}
	return res, nil
}

// FinishReports writes each agent's end-of-run report (monitor counts,
// dfstrace records, sandbox violations, txn change lists, fault
// summaries) to wr, in stack order.
func (w *World) FinishReports(wr io.Writer) {
	w.mu.Lock()
	insts := w.insts
	w.mu.Unlock()
	for _, inst := range insts {
		if inst.Finish != nil {
			inst.Finish(wr)
		}
	}
}

// Checkpoint commits the journal (so checkpoint and journal agree on
// the sequence watermark) and writes the world's durable state to wr.
// A crashed world has no trustworthy live state to checkpoint — recover
// it from the journal instead.
func (w *World) Checkpoint(wr io.Writer) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("world: %s: checkpoint on closed world", w.spec.Name)
	}
	if w.Crashed() {
		return fmt.Errorf("world: %s crashed; no checkpoint (recover from the journal)", w.spec.Name)
	}
	if jw := w.k.Journal(); jw != nil {
		if err := jw.Commit(); err != nil {
			return fmt.Errorf("world: checkpoint: %w", err)
		}
	}
	return w.k.Checkpoint(wr)
}

// Close tears the world down completely: every guest process is killed
// and reaped (no goroutines survive), the journal's pending group is
// committed (unless the world crashed — a frozen store keeps exactly
// its durable prefix) and its host file closed, and every attached
// facility is detached so the kernel, registries, and rings are
// garbage. Close is idempotent; the first error (a failed journal
// flush) is returned but teardown always completes.
func (w *World) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true

	w.k.Shutdown()

	var firstErr error
	if jw := w.k.Journal(); jw != nil && !w.Crashed() {
		if err := jw.Commit(); err != nil {
			firstErr = fmt.Errorf("world: close: %w", err)
		}
	}
	if c, ok := w.jstore.(io.Closer); ok && c != nil {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("world: close: %w", err)
		}
	}
	w.k.SetJournal(nil)
	w.k.SetInjector(nil)
	w.k.SetSupervisor(nil)
	w.k.SetSpanTracer(nil)
	w.k.SetTelemetry(nil)
	w.k.Console().Mirror(nil)
	w.stack, w.insts = nil, nil
	return firstErr
}

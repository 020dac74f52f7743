// Package kernel implements the simulated 4.3BSD kernel: the default,
// lowest-level instance of the system interface. Processes are goroutines
// with simulated 32-bit address spaces; the kernel provides files,
// pathnames, descriptors, pipes, signals, process groups, and the rest of
// the interface defined in package sys.
//
// The kernel also provides the interception mechanism on which the
// interposition toolkit is built: a per-process stack of emulation layers
// (the analog of Mach 2.5's task_set_emulation), consulted on every system
// call entry, inherited across fork, and preserved across execve.
//
// Internally the kernel uses fine-grained locking in the SMP style: a
// process-table lock for process lifecycle, per-process locks for
// credentials and descriptor tables, per-object locks for pipes and the
// console, and per-wait-object queues (wait.go) so a wakeup only wakes
// its own sleepers. DESIGN.md §8 documents the lock inventory and
// ordering rules.
package kernel

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"interpose/internal/image"
	"interpose/internal/sys"
	"interpose/internal/telemetry"
	"interpose/internal/trace"
	"interpose/internal/vfs"
)

// Kernel is one simulated machine: a filesystem, a process table, a
// console, and a clock.
type Kernel struct {
	// pmu is the process-table lock: it guards the pid table, pid
	// allocation, the hostname, process genealogy (ppid, pgrp, children),
	// process state transitions, exit status, accumulated child rusage,
	// interval timers, and wait4 coordination. Everything else has moved
	// to narrower locks (see DESIGN.md §8).
	pmu      sync.Mutex
	fs       *vfs.FS
	images   *image.Registry
	procs    map[int]*Proc
	nextPID  int
	hostname string

	// flockMu guards all advisory file-lock state (Inode.LockEx,
	// Inode.LockShared, File.lockHeld) and the single queue of lock
	// waiters; flock is rare enough that one lock for all of it is fine.
	flockMu sync.Mutex
	flockQ  waitQ

	timeOffset time.Duration // settimeofday adjustment
	bootTime   time.Time

	console *Console

	// devices is built by makeTree at boot and frozen before the first
	// process runs; reads take no lock.
	devices map[uint32]vfs.Device

	// tracer, when holding a non-nil Tracer, receives kernel-level
	// file-reference events — the "monolithic, compiled-into-the-kernel"
	// implementation that the paper's §3.5.3 compares against the dfstrace
	// agent.
	tracer atomic.Pointer[tracerBox]

	// tel, when non-nil, receives every syscall's latency, per-layer time
	// attribution, and flight-recorder events. While nil the entire
	// facility costs one atomic pointer load per instrumentation site.
	tel atomic.Pointer[telemetry.Registry]

	// inj, when non-nil, is consulted on the kernel leg of every dispatch
	// — below all emulation layers — and may satisfy or rewrite the call
	// (fault injection). While nil it costs one atomic pointer load.
	inj atomic.Pointer[injectorBox]

	// sup, when non-nil, supervises every agent upcall: panic
	// containment and per-layer circuit breakers (supervise.go). It is
	// consulted only on the interposed leg of dispatch, so the
	// uninterposed fast path stays one atomic plan load; while nil the
	// interposed leg pays one atomic pointer load.
	sup atomic.Pointer[Supervisor]

	// trc, when non-nil, is the causal span tracer: sampled syscalls open
	// root spans, interested layer upcalls and the kernel leg open child
	// spans, and causal edges (fork, exec, pipe, signal, wait) connect
	// spans across processes (internal/trace, DESIGN.md §11). While nil
	// the facility costs one atomic pointer load per syscall entry.
	trc atomic.Pointer[trace.Tracer]

	// exec memoizes execve's image-header parsing per inode, validated by
	// the inode generation counter (execcache.go).
	exec execCache

	// extraGauges, when non-nil, contributes host-side gauge rows (e.g.
	// the health state worldd reports for a hosted world) to the
	// telemetry snapshot alongside the kernel's own cache gauges, so they
	// surface in /dev/metrics.
	extraGauges atomic.Pointer[func() []telemetry.NamedCounter]

	// crashHook, when non-nil, is invoked at the top of Crash — before
	// any kernel lock is taken — so a machine supervisor (worldd's
	// health watchdog) learns of a crash-freeze the moment it happens
	// instead of on its next poll. The hook must not block.
	crashHook atomic.Pointer[func()]
}

// Injector is the kernel-side fault injection hook: consulted after all
// emulation layers, immediately before the kernel's own implementation.
// When handled is true the kernel is bypassed and (rv, err) returned;
// otherwise the call proceeds with the returned arguments.
// fault.Injector implements it.
type Injector interface {
	Inject(c sys.Ctx, num int, a sys.Args) (out sys.Args, rv sys.Retval, err sys.Errno, handled bool)
}

// injectorBox wraps the interface so the atomic pointer has a concrete
// element type.
type injectorBox struct{ inj Injector }

// New boots a kernel: an empty filesystem with the standard directory
// tree and devices, and the given program image registry.
func New(images *image.Registry) *Kernel {
	k := newKernel(images)
	k.fs = vfs.New(k.Now)
	k.makeTree()
	return k
}

// newKernel builds a kernel shell — process table, console, device
// drivers — without a filesystem. New adds an empty tree; Restore
// (checkpoint.go) adds one reconstructed from a snapshot.
func newKernel(images *image.Registry) *Kernel {
	k := &Kernel{
		images:   images,
		procs:    make(map[int]*Proc),
		nextPID:  1,
		hostname: "interpose.sim",
		bootTime: time.Now(),
		console:  newConsole(),
		devices:  make(map[uint32]vfs.Device),
	}
	k.makeDevices()
	return k
}

// Now returns the current simulated time of day (real time adjusted by
// settimeofday).
func (k *Kernel) Now() time.Time {
	return time.Now().Add(time.Duration(atomicLoadOffset(&k.timeOffset)))
}

// The time offset is read on every timestamp; guard it without taking the
// big lock by treating it as an atomic int64.
func atomicLoadOffset(d *time.Duration) time.Duration { return time.Duration(loadInt64((*int64)(d))) }

// FS returns the kernel's filesystem, for test setup and world building.
func (k *Kernel) FS() *vfs.FS { return k.fs }

// Images returns the kernel's program image registry.
func (k *Kernel) Images() *image.Registry { return k.images }

// Console returns the system console device buffers.
func (k *Kernel) Console() *Console { return k.console }

// SetTracer installs (or removes, with nil) the kernel-level file tracer.
func (k *Kernel) SetTracer(t Tracer) {
	k.tracer.Store(&tracerBox{t: t})
}

// SetTelemetry installs (or removes, with nil) the telemetry registry.
// Toggling is safe while processes run; syscalls in flight when the
// registry changes may be only partially recorded. An installed registry
// also samples the kernel's cache counters (VFS name/attribute cache,
// exec image cache) at snapshot time.
func (k *Kernel) SetTelemetry(r *telemetry.Registry) {
	if r != nil {
		r.SetGaugeSource(k.cacheGauges)
	}
	k.tel.Store(r)
}

// cacheGauges samples the kernel's caches for telemetry export. The rows
// appear in the "counters:" section of /dev/metrics and agentrun -stats.
func (k *Kernel) cacheGauges() []telemetry.NamedCounter {
	cs := k.fs.CacheStats()
	eh, em := k.exec.hits.Load(), k.exec.misses.Load()
	out := []telemetry.NamedCounter{
		{Name: "vfs.dentry.hit", Value: cs.Hits},
		{Name: "vfs.dentry.miss", Value: cs.Misses},
		{Name: "vfs.dentry.neghit", Value: cs.NegHits},
		{Name: "vfs.dentry.inval", Value: cs.Invals},
		{Name: "vfs.attr.hit", Value: cs.AttrHit},
		{Name: "vfs.attr.miss", Value: cs.AttrMis},
		{Name: "exec.image.hit", Value: eh},
		{Name: "exec.image.miss", Value: em},
	}
	if s := k.sup.Load(); s != nil {
		out = append(out, s.Gauges()...)
	}
	if t := k.trc.Load(); t != nil {
		spans, dropped := t.Stats()
		out = append(out,
			telemetry.NamedCounter{Name: "trace.spans", Value: spans},
			telemetry.NamedCounter{Name: "trace.dropped", Value: dropped},
			telemetry.NamedCounter{Name: "trace.sample_ppm", Value: uint64(t.SampleRate() * 1e6)},
		)
	}
	if g := k.extraGauges.Load(); g != nil {
		out = append(out, (*g)()...)
	}
	return out
}

// SetExtraGauges installs fn as the kernel's extra gauge source,
// replacing any earlier one; nil removes it.
func (k *Kernel) SetExtraGauges(fn func() []telemetry.NamedCounter) {
	if fn == nil {
		k.extraGauges.Store(nil)
		return
	}
	k.extraGauges.Store(&fn)
}

// Telemetry returns the installed registry, or nil.
func (k *Kernel) Telemetry() *telemetry.Registry {
	return k.tel.Load()
}

// SetSpanTracer installs (or removes, with nil) the causal span tracer.
// Toggling is safe while processes run; calls in flight when the tracer
// changes may be only partially recorded.
func (k *Kernel) SetSpanTracer(t *trace.Tracer) {
	k.trc.Store(t)
}

// SpanTracer returns the installed span tracer, or nil.
func (k *Kernel) SpanTracer() *trace.Tracer {
	return k.trc.Load()
}

// SetInjector installs (or removes, with nil) the kernel-side fault
// injector. Toggling is safe while processes run.
func (k *Kernel) SetInjector(in Injector) {
	if in == nil {
		k.inj.Store(nil)
		return
	}
	k.inj.Store(&injectorBox{inj: in})
}

// lookupDevice finds the driver registered for a device number. The
// device table is immutable after boot, so no lock is needed.
func (k *Kernel) lookupDevice(rdev uint32) vfs.Device {
	return k.devices[rdev]
}

// makeDevices builds the driver table. It runs before the filesystem
// exists so Restore can resolve snapshot device nodes against it.
func (k *Kernel) makeDevices() {
	tty := &ttyDev{k: k}
	k.devices[makeRdev(1, 3)] = nullDev{}
	k.devices[makeRdev(1, 5)] = zeroDev{}
	k.devices[makeRdev(2, 0)] = tty
	k.devices[makeRdev(0, 0)] = tty
	k.devices[makeRdev(3, 0)] = &metricsDev{k: k}
	k.devices[makeRdev(3, 1)] = &traceDev{k: k}
}

// rootCred is used for kernel-internal filesystem setup.
var rootCred = vfs.Cred{UID: 0, GID: 0}

// makeTree builds the standard directory tree and device nodes. The
// panics below are true boot invariants, not guest-reachable errors: no
// process exists yet and the filesystem is empty, so a failure here
// means the kernel itself is broken and there is nothing to degrade to.
func (k *Kernel) makeTree() {
	root := k.fs.Root()
	mk := func(parent *vfs.Inode, name string, mode uint32) *vfs.Inode {
		ip, err := k.fs.Mkdir(parent, name, mode, rootCred)
		if err != sys.OK {
			panic("kernel: boot mkdir " + name + ": " + err.Error())
		}
		return ip
	}
	mk(root, "bin", 0o755)
	dev := mk(root, "dev", 0o755)
	etc := mk(root, "etc", 0o755)
	mk(root, "home", 0o755)
	tmp := mk(root, "tmp", 0o777)
	_ = tmp
	k.fs.Chmod(mustLookup(k.fs, "/tmp"), 0o1777, rootCred)
	usr := mk(root, "usr", 0o755)
	mk(usr, "bin", 0o755)
	mk(usr, "lib", 0o755)
	mk(usr, "tmp", 0o1777)

	for _, d := range []struct {
		name string
		mode uint32
		rdev uint32
	}{
		{"null", 0o666, makeRdev(1, 3)},
		{"zero", 0o666, makeRdev(1, 5)},
		{"tty", 0o666, makeRdev(2, 0)},
		{"console", 0o666, makeRdev(0, 0)},
		{"metrics", 0o444, makeRdev(3, 0)},
		{"trace", 0o666, makeRdev(3, 1)},
	} {
		k.fs.MkDev(dev, d.name, d.mode, d.rdev, k.devices[d.rdev], rootCred)
	}

	passwd, err := k.fs.Create(etc, "passwd", 0o644, rootCred)
	if err != sys.OK {
		panic("kernel: boot create passwd") // boot invariant: empty /etc cannot refuse a create
	}
	passwd.WriteAt([]byte("root:*:0:0:Super User:/:/bin/sh\nuser:*:100:100:User:/home:/bin/sh\n"), 0, 0)

	motd, _ := k.fs.Create(etc, "motd", 0o644, rootCred)
	motd.WriteAt([]byte("4.3BSD (interpose.sim) — simulated system interface\n"), 0, 0)
}

// mustLookup resolves a path during boot; failure is a boot invariant
// violation (the path was created lines earlier in makeTree).
func mustLookup(fs *vfs.FS, path string) *vfs.Inode {
	ip, err := fs.Lookup(fs.Root(), path, rootCred, true)
	if err != sys.OK {
		panic("kernel: boot lookup " + path)
	}
	return ip
}

func makeRdev(major, minor uint32) uint32 { return major<<8 | minor }

// InstallProgram writes an executable image file for the registered image
// name at path (creating it 0755), e.g. InstallProgram("/bin/cat", "cat").
func (k *Kernel) InstallProgram(path, name string) error {
	if _, ok := k.images.Lookup(name); !ok {
		return fmt.Errorf("kernel: no registered image %q", name)
	}
	return k.WriteFile(path, image.Header(name), 0o755)
}

// WriteFile creates (or truncates) a file at path with the given contents,
// as the super-user. It is a world-building convenience, not a system call.
func (k *Kernel) WriteFile(path string, data []byte, perm uint32) error {
	dir, name, existing, err := k.fs.LookupParent(k.fs.Root(), path, rootCred)
	if err != sys.OK {
		return fmt.Errorf("kernel: writefile %s: %w", path, err)
	}
	ip := existing
	if ip == nil {
		ip, err = k.fs.Create(dir, name, perm, rootCred)
		if err != sys.OK {
			return fmt.Errorf("kernel: writefile %s: %w", path, err)
		}
	} else if e := ip.Truncate(0); e != sys.OK {
		return fmt.Errorf("kernel: writefile %s: %w", path, e)
	}
	if _, e := ip.WriteAt(data, 0, 0); e != sys.OK {
		return fmt.Errorf("kernel: writefile %s: %w", path, e)
	}
	return nil
}

// Remove unlinks the file at path as the super-user (world building and
// test cleanup); missing files are not an error.
func (k *Kernel) Remove(path string) error {
	dir, name, existing, err := k.fs.LookupParent(k.fs.Root(), path, rootCred)
	if err != sys.OK {
		return fmt.Errorf("kernel: remove %s: %w", path, err)
	}
	if existing == nil {
		return nil
	}
	if e := k.fs.Unlink(dir, name, rootCred); e != sys.OK {
		return fmt.Errorf("kernel: remove %s: %w", path, e)
	}
	return nil
}

// ReadFile returns the contents of the file at path, as the super-user.
func (k *Kernel) ReadFile(path string) ([]byte, error) {
	ip, err := k.fs.Lookup(k.fs.Root(), path, rootCred, true)
	if err != sys.OK {
		return nil, fmt.Errorf("kernel: readfile %s: %w", path, err)
	}
	return ip.Bytes(), nil
}

// MkdirAll creates path and any missing parents, as the super-user.
func (k *Kernel) MkdirAll(path string, perm uint32) error {
	parts, _, _ := vfs.SplitPath(path)
	cur := k.fs.Root()
	for _, p := range parts {
		next, err := k.fs.Lookup(cur, p, rootCred, true)
		if err == sys.ENOENT {
			next, err = k.fs.Mkdir(cur, p, perm, rootCred)
		}
		if err != sys.OK {
			return fmt.Errorf("kernel: mkdirall %s: %w", path, err)
		}
		cur = next
	}
	return nil
}

// Console is the system console: a tty whose output is captured and whose
// input can be fed programmatically.
type Console struct {
	mu     sync.Mutex
	out    bytes.Buffer
	in     bytes.Buffer
	inEOF  bool
	mirror io.Writer

	// readQ holds processes blocked in a tty read; Feed and FeedEOF wake
	// only these sleepers, not the rest of the system.
	readQ waitQ
}

func newConsole() *Console { return &Console{} }

// Output returns everything written to the console so far.
func (c *Console) Output() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.String()
}

// TakeOutput returns and clears the captured console output.
func (c *Console) TakeOutput() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.out.String()
	c.out.Reset()
	return s
}

// Mirror also copies future console output to w (nil to stop).
func (c *Console) Mirror(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mirror = w
}

// Feed appends bytes to the console input queue, waking blocked readers.
func (c *Console) Feed(s string) {
	c.mu.Lock()
	c.in.WriteString(s)
	c.readQ.wakeAll()
	c.mu.Unlock()
}

// FeedEOF marks the console input as ended: readers at the end of the
// queued input see end-of-file instead of blocking.
func (c *Console) FeedEOF() {
	c.mu.Lock()
	c.inEOF = true
	c.readQ.wakeAll()
	c.mu.Unlock()
}

func (c *Console) write(p []byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out.Write(p)
	if c.mirror != nil {
		c.mirror.Write(p)
	}
	return len(p)
}

// read returns (0, false) when no input is queued and EOF has not been fed.
func (c *Console) read(p []byte) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.in.Len() == 0 {
		return 0, c.inEOF
	}
	n, _ := c.in.Read(p)
	return n, true
}

// Character devices.

type nullDev struct{}

func (nullDev) Read(p []byte, off int64) (int, sys.Errno)  { return 0, sys.OK }
func (nullDev) Write(p []byte, off int64) (int, sys.Errno) { return len(p), sys.OK }
func (nullDev) Ioctl(req, arg sys.Word, c sys.Ctx) sys.Errno {
	return sys.ENOTTY
}

type zeroDev struct{}

func (zeroDev) Read(p []byte, off int64) (int, sys.Errno) {
	for i := range p {
		p[i] = 0
	}
	return len(p), sys.OK
}
func (zeroDev) Write(p []byte, off int64) (int, sys.Errno) { return len(p), sys.OK }
func (zeroDev) Ioctl(req, arg sys.Word, c sys.Ctx) sys.Errno {
	return sys.ENOTTY
}

// blockingDevice is implemented by devices whose reads can block. When a
// read returns EAGAIN on a blocking descriptor the kernel read path calls
// WaitInput, which sleeps the process on the device's own wait queue
// until input may be available (or the sleep is interrupted).
type blockingDevice interface {
	WaitInput(p *Proc) sys.Errno
}

// ttyDev is the console terminal. Reads with no queued input report
// "would block" to the kernel's read path, which sleeps the caller.
type ttyDev struct{ k *Kernel }

// WaitInput blocks on the console's read queue until input or EOF is
// available. The registration happens under the same lock that guards
// the input buffer, so a Feed between the failed read and the sleep
// cannot be lost.
func (t *ttyDev) WaitInput(p *Proc) sys.Errno {
	c := t.k.console
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.in.Len() == 0 && !c.inEOF {
		if e := p.sleepOn(&c.readQ, &c.mu); e != sys.OK {
			return e
		}
	}
	return sys.OK
}

func (t *ttyDev) Read(p []byte, off int64) (int, sys.Errno) {
	n, ready := t.k.console.read(p)
	if n == 0 && !ready {
		return 0, sys.EAGAIN // kernel read path converts to a sleep
	}
	return n, sys.OK
}

func (t *ttyDev) Write(p []byte, off int64) (int, sys.Errno) {
	return t.k.console.write(p), sys.OK
}

func (t *ttyDev) Ioctl(req, arg sys.Word, c sys.Ctx) sys.Errno {
	switch req {
	case sys.TIOCGWINSZ:
		// struct winsize{ rows, cols, xpixel, ypixel uint16 }
		b := []byte{24, 0, 80, 0, 0, 0, 0, 0}
		return c.CopyOut(arg, b)
	case sys.TIOCGPGRP:
		b := []byte{0, 0, 0, 0}
		return c.CopyOut(arg, b)
	case sys.TIOCSPGRP:
		return sys.OK
	}
	return sys.ENOTTY
}

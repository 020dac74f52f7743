package kernel

import (
	"time"

	"interpose/internal/sys"
)

// TraceEvent is one kernel-level file-reference event, as produced by the
// compiled-into-the-kernel tracing facility (the monolithic DFSTrace-style
// implementation the paper's §3.5.3 compares against the dfstrace agent).
type TraceEvent struct {
	Time  time.Time
	PID   int
	Op    string
	Path  string
	Path2 string
	FD    int
	Err   sys.Errno
}

// Tracer receives kernel-level trace events.
type Tracer interface {
	Event(e TraceEvent)
}

// tracerBox wraps a Tracer so the atomic pointer always stores a
// consistent concrete type (a nil box means tracing is off).
type tracerBox struct{ t Tracer }

// trace is the kernel's single event spine: every file-reference hook in
// the system call implementations funnels through here, fanning out to
// the installed Tracer (the DFSTrace-style collector) and to the
// telemetry flight recorder. Each consumer costs one atomic load when
// disabled — the paper's pay-per-use principle, bought here at the price
// of hooks in every system call implementation above ("modifying 26
// kernel files", as the paper puts it).
func (k *Kernel) trace(p *Proc, op, path, path2 string, fd int, err sys.Errno) {
	if b := k.tracer.Load(); b != nil && b.t != nil {
		b.t.Event(TraceEvent{
			Time: k.Now(), PID: p.pid, Op: op, Path: path, Path2: path2, FD: fd, Err: err,
		})
	}
	if r := k.tel.Load(); r != nil {
		r.RecordFileEvent(p.pid, op, path, path2, fd, int32(err))
	}
}

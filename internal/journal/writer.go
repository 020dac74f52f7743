package journal

import (
	"fmt"
	"sync"
)

// DefaultGroupBytes is the group-commit threshold: appended frames are
// buffered until at least this many bytes are pending, then pushed to
// the store in one Append. sync/fsync (and a graceful shutdown) flush
// the pending group explicitly. The threshold is a byte count, not a
// timer, so flush points are a deterministic function of the record
// stream — a seeded crash replays byte-identically.
const DefaultGroupBytes = 4096

// Writer appends records to a Store with group commit. It is safe for
// concurrent use; the mutex is a leaf lock, acquired while VFS inode
// locks are held (DESIGN.md §12 adds it to the lock inventory).
//
// A store failure (ErrNoSpace, an I/O error) latches: the writer refuses
// every subsequent append with the same error and never drops a record
// silently. The VFS maps the latched state to EROFS for guest mutators.
type Writer struct {
	mu    sync.Mutex
	st    Store
	buf   *groupBuf // pending frames; nil while none are pending
	group int
	seq   uint64 // last assigned sequence number
	err   error  // latched store failure

	appended uint64
	flushes  uint64
}

// NewWriter creates a Writer over st. groupBytes <= 0 selects
// DefaultGroupBytes; groupBytes == 1 effectively commits every record.
func NewWriter(st Store, groupBytes int) *Writer {
	if groupBytes <= 0 {
		groupBytes = DefaultGroupBytes
	}
	return &Writer{st: st, group: groupBytes}
}

// StartAt sets the next sequence number to seq, for appending to a
// journal whose prefix (ending at seq-1) was just replayed.
func (w *Writer) StartAt(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq > 0 {
		w.seq = seq - 1
	}
}

// Append assigns the record its sequence number and buffers its frame,
// flushing the pending group once it reaches the threshold. The record's
// fields are consumed before return; the caller may reuse backing
// arrays.
func (w *Writer) Append(r *Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.seq++
	r.Seq = w.seq
	if w.buf == nil {
		w.buf = takeGroupBuf(w.group + maxFrame(r))
	}
	w.buf.b = AppendFrame(w.buf.b, r)
	w.appended++
	if len(w.buf.b) >= w.group {
		return w.flushLocked()
	}
	return nil
}

// Commit flushes the pending group to the store — the journal's fsync.
// Stores with a durable watermark (MemStore, FileStore) are advanced
// past the flushed bytes, so a later simulated torn tail cannot destroy
// a record this barrier promised durable.
func (w *Writer) Commit() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.flushLocked(); err != nil {
		return err
	}
	if s, ok := w.st.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			w.err = fmt.Errorf("journal: sync failed: %w", err)
			return w.err
		}
	}
	return nil
}

func (w *Writer) flushLocked() error {
	if w.buf == nil {
		return nil
	}
	if err := w.st.Append(w.buf.b); err != nil {
		// Latch: the failed group's records were never durable, and no
		// later record may skip past them.
		w.err = fmt.Errorf("journal: append failed: %w", err)
		return w.err
	}
	w.flushes++
	if cap(w.buf.b) <= maxPooledGroup {
		w.buf.b = w.buf.b[:0]
		groupBufs.Put(w.buf)
	}
	w.buf = nil
	return nil
}

// groupBuf holds a writer's pending frames. Writers recycle them through
// groupBufs and hold one only while records are pending, so a world that
// never writes pays nothing for it, and a new world's first group reuses
// a buffer an earlier world already grew to the frames it wrote.
type groupBuf struct{ b []byte }

var groupBufs sync.Pool

// maxPooledGroup caps the buffers kept for reuse, so that one huge write
// does not pin its buffer.
const maxPooledGroup = 64 << 10

// takeGroupBuf returns a recycled buffer, or a new one of capacity size.
func takeGroupBuf(size int) *groupBuf {
	if g, ok := groupBufs.Get().(*groupBuf); ok {
		return g
	}
	return &groupBuf{make([]byte, 0, size)}
}

// Err returns the latched store failure, or nil while healthy.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Seq returns the last assigned sequence number.
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Stats reports appended record and group-flush counts.
func (w *Writer) Stats() (records, flushes uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended, w.flushes
}

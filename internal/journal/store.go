package journal

import (
	"errors"
	"os"
	"sync"

	"interpose/internal/mem"
)

// ErrNoSpace is returned by a Store whose capacity is exhausted: the
// journal device is full. The Writer latches it and every later append
// fails the same way, which the VFS surfaces to writers as EROFS —
// graceful degradation, never silent record loss.
var ErrNoSpace = errors.New("journal: store full")

// Store is the persistence layer under a Writer: an append-only byte
// device. Append is called with fully framed record bytes (one group
// commit per call) and must not keep p: writers recycle the buffer.
type Store interface {
	Append(p []byte) error
	Size() int64
}

// MemStore is an in-memory Store for tests and simulated crashes. A
// capacity limit models a small journal device (ENOSPC); Freeze models
// the machine dying — the store keeps what it has (optionally tearing
// bytes off the tail, a half-written final sector) and silently ignores
// every later append, exactly as a dead disk would.
//
// The stored bytes are a chain of one-page chunks drawn from the shared
// buffer allocator (mem.Alloc) and filled in order. A byte is copied in
// once and never moved again, so a write-heavy journal costs its own
// size, not the doubling copies of one growing buffer; Release gives the
// chunks back when the world that wrote them is gone.
type MemStore struct {
	mu     sync.Mutex
	chunks [][]byte // every chunk but the last is full
	size   int64    // total bytes over chunks
	limit  int64    // 0 = unlimited
	synced int64    // durable watermark: Freeze never tears below it
	frozen bool
}

// chunkSize is the size of one MemStore chunk: the allocator's smallest
// class.
const chunkSize = mem.MinClass

// NewMemStore creates a MemStore; limit > 0 caps its capacity in bytes.
func NewMemStore(limit int64) *MemStore {
	return &MemStore{limit: limit}
}

// Append adds framed bytes, failing with ErrNoSpace past the capacity
// limit. Appends after Freeze are dropped without error: the world that
// issued them is already dead.
func (m *MemStore) Append(p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.frozen || len(p) == 0 {
		return nil
	}
	if m.limit > 0 && m.size+int64(len(p)) > m.limit {
		return ErrNoSpace
	}
	m.size += int64(len(p))
	for len(p) > 0 {
		last := len(m.chunks) - 1
		if last < 0 || len(m.chunks[last]) == chunkSize {
			m.chunks = append(m.chunks, mem.Alloc(0, chunkSize))
			last++
		}
		c := m.chunks[last]
		n := min(len(p), chunkSize-len(c))
		m.chunks[last] = append(c, p[:n]...)
		p = p[n:]
	}
	return nil
}

// Size returns the stored byte count.
func (m *MemStore) Size() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.size
}

// Sync marks the store's current contents durable: a later Freeze may
// tear bytes appended after this point but never below it. The Writer
// calls it on every explicit Commit — the journal's fsync barrier.
func (m *MemStore) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.synced = m.size
	return nil
}

// Freeze simulates the crash instant: the store's current contents
// (minus torn trailing bytes) become immutable, and later appends are
// silently discarded. Tearing is clamped to the synced watermark —
// a half-written final sector can only damage bytes no fsync barrier
// has promised durable. A tear may span several trailing chunks.
// Idempotent — only the first call tears.
func (m *MemStore) Freeze(torn int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.frozen {
		return
	}
	m.frozen = true
	cut := min(int64(max(torn, 0)), m.size-m.synced)
	m.size -= cut
	for cut > 0 {
		last := len(m.chunks) - 1
		c := m.chunks[last]
		if int64(len(c)) > cut {
			m.chunks[last] = c[:int64(len(c))-cut]
			break
		}
		mem.Free(c)
		m.chunks = m.chunks[:last]
		cut -= int64(len(c))
	}
}

// Bytes returns a copy of the stored journal, for recovery scans.
func (m *MemStore) Bytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]byte, 0, m.size)
	for _, c := range m.chunks {
		out = append(out, c...)
	}
	return out
}

// Release gives the store's chunks back to the allocator and returns
// how many went back. The store is left frozen and empty: the world it
// journaled is gone, and nothing may read its journal afterwards.
func (m *MemStore) Release() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.chunks {
		if mem.Free(c) {
			n++
		}
	}
	m.chunks = nil
	m.size, m.synced = 0, 0
	m.frozen = true
	return n
}

// FileStore is a host-file-backed Store, used by agentrun -journal.
// Freeze carries the same crash semantics as MemStore so an injected
// crash in a real agentrun leaves a truthful journal file behind.
type FileStore struct {
	mu     sync.Mutex
	f      *os.File
	size   int64
	synced int64 // durable watermark: Freeze never tears below it
	frozen bool
}

// CreateFileStore creates (truncating) the journal file at path.
func CreateFileStore(path string) (*FileStore, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &FileStore{f: f}, nil
}

// OpenFileStore opens an existing journal file for appending, returning
// the store and the bytes already present (the recovery prefix).
func OpenFileStore(path string) (*FileStore, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// The on-disk prefix already survived at least one shutdown; treat it
	// as durable so a simulated torn tail never reaches into it.
	return &FileStore{f: f, size: int64(len(data)), synced: int64(len(data))}, data, nil
}

// Append writes framed bytes through to the file.
func (s *FileStore) Append(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return nil
	}
	n, err := s.f.Write(p)
	s.size += int64(n)
	return err
}

// Size returns the bytes written so far.
func (s *FileStore) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Sync pushes the file to stable storage and advances the durable
// watermark, mirroring MemStore.Sync.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.synced = s.size
	return nil
}

// Freeze stops accepting appends and tears torn bytes off the file
// tail, clamped so the tear never reaches below the synced watermark.
func (s *FileStore) Freeze(torn int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return
	}
	s.frozen = true
	if torn > 0 {
		if max := s.size - s.synced; int64(torn) > max {
			torn = int(max)
		}
		if torn > 0 {
			s.size -= int64(torn)
			s.f.Truncate(s.size)
		}
	}
	s.f.Sync()
}

// TruncateTo discards everything past size — recovery drops a torn tail
// before appending fresh records, so the garbage never precedes valid
// frames.
func (s *FileStore) TruncateTo(size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if size > s.size {
		return nil
	}
	if err := s.f.Truncate(size); err != nil {
		return err
	}
	s.size = size
	if s.synced > size {
		s.synced = size
	}
	_, err := s.f.Seek(size, 0)
	return err
}

// Close flushes and closes the underlying file.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

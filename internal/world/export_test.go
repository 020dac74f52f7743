package world

import "interpose/internal/journal"

// Released returns the number of buffers w's Close gave back to the
// shared allocator (zero before Close).
func Released(w *World) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.released
}

// JournalBytes returns what w's in-memory journal store holds (nil for
// a world without one).
func JournalBytes(w *World) []byte {
	if st, ok := w.jstore.(*journal.MemStore); ok {
		return st.Bytes()
	}
	return nil
}

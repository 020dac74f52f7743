package world_test

import (
	"runtime"
	"testing"

	"interpose/internal/apps"
)

// execAllocBudget bounds the bytes one `true` session allocates once the
// world is warm. Without page and stdio-buffer recycling a session
// allocated about 12 KB (a fresh page per touch, a fresh 4 KB stdout
// buffer per process); with it, about 4 KB.
const execAllocBudget = 8 << 10

// TestExecAllocBudget pins that a session's process memory is recycled:
// bytes allocated per world.Exec of `true` stay under execAllocBudget.
// The race detector makes sync.Pool drop items on purpose, so the figure
// is meaningless there.
func TestExecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	w := boot(t, apps.Spec())
	exec := func() {
		if res := run(t, w, "true"); res.Status != 0 {
			t.Fatalf("true: status %d", res.Status)
		}
	}
	for i := 0; i < 20; i++ { // warm the pools and caches
		exec()
	}
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		exec()
	}
	runtime.ReadMemStats(&after)
	perExec := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per Exec(true)", perExec)
	if perExec > execAllocBudget {
		t.Errorf("Exec(true) allocates %d bytes, budget %d", perExec, execAllocBudget)
	}
}

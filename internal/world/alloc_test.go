package world_test

import (
	"runtime"
	"strings"
	"testing"

	"interpose/internal/apps"
	"interpose/internal/kernel"
	"interpose/internal/world"
)

// execAllocBudget bounds the bytes one `true` session allocates once the
// world is warm. Without page and stdio-buffer recycling a session
// allocated about 12 KB (a fresh page per touch, a fresh 4 KB stdout
// buffer per process); with it, about 3.9 KB. Drawing pages from the
// shared buffer allocator and growing the descriptor table on demand
// (it started at 64 slots) brought it to about 2.9 KB. Under the union
// agent a session allocated about 4.9 KB while installing the agent
// converted its interest set through a fresh slice; copying the set
// brought it to about 3.7 KB.
const execAllocBudget = 4 << 10

// TestExecAllocBudget pins that a session's process memory is recycled
// and that installing an agent stack costs little: bytes allocated per
// world.Exec of `true`, bare and under the union agent, stay under
// execAllocBudget. The race detector makes sync.Pool drop items on
// purpose, so the figure is meaningless there.
func TestExecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	for _, agents := range [][]string{nil, {"union=/view=/doc:/src"}} {
		spec := apps.Spec()
		spec.Agents = agents
		w := boot(t, spec)
		exec := func() {
			if res := run(t, w, "true"); res.Status != 0 {
				t.Fatalf("%v: true: status %d", agents, res.Status)
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
		t.Logf("agents %v: %d bytes allocated per Exec(true)", agents, perExec)
		if perExec > execAllocBudget {
			t.Errorf("agents %v: Exec(true) allocates %d bytes, budget %d", agents, perExec, execAllocBudget)
		}
	}
}

// churnAllocBudget bounds the bytes one tenant-churn cycle allocates: a
// fork, with an in-memory journal, of a warm base that holds perfbench's
// dissertation; one session that copies /doc/chapter01.mss (12,319
// bytes) around; and the close. Storing each journal byte once, reading
// a whole file into one exact-size array and growing a file by doubling
// brought the cycle from about 427 KB to about 280 KB; recycling journal
// group buffers across worlds, to about 265 KB. Drawing file data and
// journal chunks from the shared buffer allocator and giving them back
// at Close, to about 142 KB.
const churnAllocBudget = 192 << 10

// churnScript is perfbench's tenant-churn session.
const churnScript = "mkdir /w; cd /w; cp /doc/chapter01.mss a; cp a b; cat a b > c; mv c d; wc d; rm a"

// TestChurnAllocBudget pins that a write-heavy session pays about once
// for each byte it produces: bytes allocated per fork + churn session +
// close stay under churnAllocBudget.
func TestChurnAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	tmpl := apps.Spec()
	tmpl.Setup = append(tmpl.Setup, func(k *kernel.Kernel) error {
		_, err := apps.GenDissertation(k, "/doc", 8, 4, 6)
		return err
	})
	base := boot(t, tmpl)
	spec := apps.Spec()
	spec.JournalMem = true
	cycle := func() {
		w, err := world.Fork(base, spec)
		if err != nil {
			t.Fatalf("fork: %v", err)
		}
		// wc counts d, the two copies of chapter01.mss.
		res := run(t, w, "sh", "-c", churnScript)
		if f := strings.Fields(res.Output); res.Status != 0 || len(f) != 4 || f[2] != "24638" {
			t.Fatalf("churn: status %d: %q", res.Status, res.Output)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	for i := 0; i < 10; i++ { // warm the pools and caches
		cycle()
	}
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per churn cycle", perCycle)
	if perCycle > churnAllocBudget {
		t.Errorf("churn cycle allocates %d bytes, budget %d", perCycle, churnAllocBudget)
	}
}

package world

// Internal pool tests: the parts that need to see the warm stack
// (LIFO order) or poke zero-value corners. The exec-level pool suite —
// member isolation, gauges, acquire storms — lives in pool_ext_test.go
// against the real application set (which this package cannot import).

import (
	"sync"
	"testing"
	"time"

	"interpose/internal/image"
	"interpose/internal/kernel"
	"interpose/internal/libc"
)

// tinySpec is a pool spec over a single trivial program, enough to boot
// template and members without the application set.
func tinySpec() Spec {
	return Spec{
		Name: "tiny",
		Register: func(r *image.Registry) {
			r.Register("true", libc.Main(func(*libc.T) int { return 0 }))
		},
		Setup: []func(*kernel.Kernel) error{
			func(k *kernel.Kernel) error {
				return k.WriteFile("/state", []byte("template\n"), 0o644)
			},
		},
	}
}

// tinyTemplate boots the bare template of tinySpec, closed when the
// test ends (after the pools built on it, whose cleanups run first).
func tinyTemplate(t *testing.T) *World {
	t.Helper()
	tmpl, err := Boot(tinySpec())
	if err != nil {
		t.Fatalf("template: %v", err)
	}
	t.Cleanup(func() { tmpl.Close() })
	return tmpl
}

func TestPoolRejectsBadSpecs(t *testing.T) {
	tmpl := tinyTemplate(t)
	if _, err := NewPoolFrom(tmpl, tinySpec(), 0); err == nil {
		t.Fatal("target 0 accepted")
	}
	restore := tinySpec()
	restore.RestorePath = "/nope.ckpt"
	if _, err := NewPoolFrom(tmpl, restore, 1); err == nil {
		t.Fatal("restore spec accepted")
	}
	filed := tinySpec()
	filed.JournalPath = "/tmp/nope.jnl"
	if _, err := NewPoolFrom(tmpl, filed, 1); err == nil {
		t.Fatal("file journal accepted")
	}
	if _, err := NewPool(filed, 1); err == nil {
		t.Fatal("file journal accepted by NewPool")
	}
}

func TestPoolHitLIFOAndRefill(t *testing.T) {
	p, err := NewPoolFrom(tinyTemplate(t), tinySpec(), 3)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	t.Cleanup(func() { p.Close() })

	if s := p.Stats(); s.Size != 3 || s.Target != 3 {
		t.Fatalf("pre-warm stats %+v", s)
	}

	// LIFO: the acquire must pop the top of the warm stack.
	p.mu.Lock()
	top := p.warm[len(p.warm)-1]
	p.mu.Unlock()
	w, err := p.Acquire()
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	if w != top {
		t.Fatal("acquire did not pop the most recent member")
	}
	if s := p.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("after one warm acquire: %+v", s)
	}

	// The refiller climbs the stack back to target off the request path.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Size < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never refilled to 3 (size %d)", p.Stats().Size)
		}
		time.Sleep(time.Millisecond)
	}
	if s := p.Stats(); s.Refills == 0 || s.RefillNs <= 0 {
		t.Fatalf("refill gauges after refill: %+v", s)
	}
}

func TestPoolMissForksInline(t *testing.T) {
	p, err := NewPoolFrom(tinyTemplate(t), tinySpec(), 1)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	t.Cleanup(func() { p.Close() })

	// Empty the stack by hand so the next acquire is a guaranteed miss
	// (draining via Acquire races the refiller).
	p.mu.Lock()
	drained := p.warm
	p.warm = nil
	p.mu.Unlock()
	for _, w := range drained {
		defer w.Close()
	}

	w, err := p.Acquire()
	if err != nil {
		t.Fatalf("miss acquire: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	if s := p.Stats(); s.Misses != 1 {
		t.Fatalf("miss not counted: %+v", s)
	}
	// A missed world is a real world: template filesystem and all.
	if data, err := w.Kernel().ReadFile("/state"); err != nil || string(data) != "template\n" {
		t.Fatalf("miss world state: %v %q", err, data)
	}
}

// TestPoolClose: Close is idempotent and final, and it closes only what
// the pool owns — a template handed to NewPoolFrom stays open (and
// forkable, so several pools can share it), while the template NewPool
// booted for itself is closed with the pool.
func TestPoolClose(t *testing.T) {
	tmpl := tinyTemplate(t)
	p, err := NewPoolFrom(tmpl, tinySpec(), 2)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := p.Acquire(); err == nil {
		t.Fatal("acquire on closed pool succeeded")
	}
	w, err := Fork(tmpl, tinySpec())
	if err != nil {
		t.Fatalf("template closed by the pool it was handed to: %v", err)
	}
	w.Close()

	own, err := NewPool(tinySpec(), 1)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	if err := own.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := Fork(own.Template(), tinySpec()); err == nil {
		t.Fatal("NewPool left its own template open")
	}
}

// TestPoolCloseRefillerRace hammers Acquire from several goroutines
// while Close lands mid-refill (run under -race). The contract under
// test: once Close returns, the refiller has observed closed and will
// never fork again — the warm stack stays empty, the refill counter
// stops moving, and a failure from the refiller's final fork is not
// silently dropped between Close's snapshot and its wait.
func TestPoolCloseRefillerRace(t *testing.T) {
	tmpl := tinyTemplate(t)
	for round := 0; round < 25; round++ {
		p, err := NewPoolFrom(tmpl, tinySpec(), 2)
		if err != nil {
			t.Fatalf("pool: %v", err)
		}

		acquired := make(chan *World, 64)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					w, err := p.Acquire()
					if err != nil {
						return // pool closed under us: expected
					}
					acquired <- w
				}
			}()
		}
		closeErr := make(chan error, 1)
		go func() { closeErr <- p.Close() }()
		wg.Wait()
		if err := <-closeErr; err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}

		// Close has returned: the refiller must be quiescent. Any fork
		// completing after this point would push a member onto the warm
		// stack (a leak — nothing will ever close it) or bump refills.
		refills := p.refills.Load()
		if n := len(p.warm); n != 0 {
			t.Fatalf("round %d: %d warm members left after close", round, n)
		}
		time.Sleep(2 * time.Millisecond)
		if got := p.refills.Load(); got != refills {
			t.Fatalf("round %d: refiller forked after Close returned (%d -> %d)",
				round, refills, got)
		}
		if n := len(p.warm); n != 0 {
			t.Fatalf("round %d: late fork leaked %d members", round, n)
		}

		close(acquired)
		for w := range acquired {
			w.Close()
		}
	}
}

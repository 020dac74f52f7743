package world

// Tests of the Pool shim the benchmark's probes compile against: it
// refuses what it always refused, forks its template on every Acquire,
// and closes that template on Close.

import (
	"sync"
	"testing"

	"interpose/internal/image"
	"interpose/internal/kernel"
	"interpose/internal/libc"
)

// tinySpec is a pool spec over a single trivial program, enough to boot
// a template and its forks without the application set.
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

func TestPoolRejectsBadSpecs(t *testing.T) {
	restore := tinySpec()
	restore.RestorePath = "/nope.ckpt"
	if _, err := NewPool(restore, 1); err == nil {
		t.Fatal("restore spec accepted")
	}
	filed := tinySpec()
	filed.JournalPath = "/tmp/nope.jnl"
	if _, err := NewPool(filed, 1); err == nil {
		t.Fatal("file journal accepted")
	}
}

// TestPoolClose: Close closes the template NewPool booted, so a later
// Acquire fails, and a second Close is a no-op.
func TestPoolClose(t *testing.T) {
	p, err := NewPool(tinySpec(), 1)
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
}

// TestPoolMissForksInline: with nothing pre-forked, every Acquire forks
// the template inline; the world it returns carries the template's
// filesystem, and its writes stay out of the template and later forks.
func TestPoolMissForksInline(t *testing.T) {
	p, err := NewPool(tinySpec(), 1)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	t.Cleanup(func() { p.Close() })

	w, err := p.Acquire()
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	if w == p.template {
		t.Fatal("acquire handed out the template itself")
	}
	if data, err := w.Kernel().ReadFile("/state"); err != nil || string(data) != "template\n" {
		t.Fatalf("forked world state: %v %q", err, data)
	}
	if err := w.Kernel().WriteFile("/state", []byte("mine\n"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	w2, err := p.Acquire()
	if err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	t.Cleanup(func() { w2.Close() })
	for name, fw := range map[string]*World{"template": p.template, "second fork": w2} {
		if data, err := fw.Kernel().ReadFile("/state"); err != nil || string(data) != "template\n" {
			t.Fatalf("%s saw the first fork's write: %v %q", name, err, data)
		}
	}
}

// TestPoolAcquireStorm: concurrent acquires each fork a distinct,
// runnable world that carries the template's filesystem.
func TestPoolAcquireStorm(t *testing.T) {
	p, err := NewPool(tinySpec(), 0)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	t.Cleanup(func() { p.Close() })

	const goroutines = 8
	var wg sync.WaitGroup
	worlds := make([]*World, goroutines)
	for g := range worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := p.Acquire()
			if err != nil {
				t.Errorf("acquire %d: %v", g, err)
				return
			}
			worlds[g] = w
		}()
	}
	wg.Wait()

	seen := map[*World]bool{}
	for g, w := range worlds {
		if w == nil {
			t.Fatal("nil world from storm")
		}
		if seen[w] {
			t.Fatal("one world handed out twice")
		}
		seen[w] = true
		t.Cleanup(func() { w.Close() })
		res, err := w.Exec(ExecRequest{Argv: []string{"true"}})
		if err != nil || res.Status != 0 {
			t.Fatalf("storm world %d exec: %v status %d", g, err, res.Status)
		}
		if data, err := w.Kernel().ReadFile("/state"); err != nil || string(data) != "template\n" {
			t.Fatalf("storm world %d state: %v %q", g, err, data)
		}
	}
}

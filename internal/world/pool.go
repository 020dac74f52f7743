package world

import "fmt"

// Pool is a compatibility shim for the benchmark's probes, and goes at
// the next benchmark change: it boots a template and forks it on each
// Acquire. Nothing is pre-forked; a fork is already O(1).
type Pool struct {
	spec     Spec
	template *World
}

// NewPool boots a bare template from spec's Register and Setup; target
// is ignored. A shim for the benchmark's probes, removed at the next
// benchmark change. File journals are refused.
func NewPool(spec Spec, target int) (*Pool, error) {
	if spec.JournalPath != "" {
		return nil, fmt.Errorf("world: pool %q: file journals are per-world; use journal_mem", spec.Name)
	}
	tmpl, err := Boot(Spec{Name: spec.Name + "/template", Register: spec.Register, Setup: spec.Setup})
	if err != nil {
		return nil, fmt.Errorf("world: pool %q: template: %w", spec.Name, err)
	}
	return &Pool{spec: spec, template: tmpl}, nil
}

// Acquire forks the template (shim; goes at the next benchmark change).
func (p *Pool) Acquire() (*World, error) { return Fork(p.template, p.spec) }

// Close closes the template (shim; goes at the next benchmark change).
func (p *Pool) Close() error { return p.template.Close() }

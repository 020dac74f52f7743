package worldd

import "interpose/internal/world"

// Base exposes the server's base world to the external tests.
func (s *Server) Base() *world.World { return s.base }

// Current returns the live incarnation of a hosted world, or nil.
func (s *Server) Current(id string) *world.World {
	e, ok := s.lookup(id)
	if !ok {
		return nil
	}
	return e.w.Load()
}

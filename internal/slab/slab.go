// Package slab hands out values carved from append-only storage. Trace
// records share their access paths and sites by pointer and may outlive
// whatever made them, so those values are never freed one by one or
// written again: a slab fills a chunk, then starts the next, and leaves
// the old one to the records that hold its values.
package slab

// Chunk lengths, in values: the first chunk, and the cap the doubling
// stops at, so a slab that carves a few values does not pay for a full
// chunk. A run longer than MaxChunk gets a chunk of its own length.
const (
	firstChunk = 64
	MaxChunk   = 4096
)

// Slab carves values from chunks it never reuses. The zero Slab is ready
// for use. A Slab is not safe for concurrent use.
type Slab[T any] struct{ chunk []T }

// New stores v and returns where it is stored.
func (s *Slab[T]) New(v T) *T {
	s.room(1)
	s.chunk = append(s.chunk, v)
	return &s.chunk[len(s.chunk)-1]
}

// Copy stores a copy of p and returns it, capped at its length so that an
// append by a consumer reallocates instead of overwriting the next copy.
// An empty p copies to nil.
func (s *Slab[T]) Copy(p []T) []T {
	if len(p) == 0 {
		return nil
	}
	s.room(len(p))
	n := len(s.chunk)
	s.chunk = append(s.chunk, p...)
	return s.chunk[n:len(s.chunk):len(s.chunk)]
}

// room starts a new chunk unless n more values fit in this one.
func (s *Slab[T]) room(n int) {
	if cap(s.chunk)-len(s.chunk) < n {
		s.chunk = make([]T, 0, max(min(2*cap(s.chunk), MaxChunk), firstChunk, n))
	}
}

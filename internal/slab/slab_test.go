package slab

import "testing"

// TestCopy: copies hold what was copied, survive the copies after them
// (also one longer than a chunk) and are capped, so an append to one does
// not overwrite its neighbour; an empty run copies to nil.
func TestCopy(t *testing.T) {
	var s Slab[int]
	if p := s.Copy(nil); p != nil {
		t.Fatalf("empty copy %v, want nil", p)
	}
	var got [][]int
	for n := 1; n <= 40; n++ {
		p := make([]int, n*n)
		for i := range p {
			p[i] = n
		}
		got = append(got, s.Copy(p))
	}
	_ = append(got[0], -1)
	for i, p := range got {
		n := i + 1
		if len(p) != n*n || cap(p) != n*n {
			t.Fatalf("copy %d: len %d cap %d, want %d", n, len(p), cap(p), n*n)
		}
		for _, v := range p {
			if v != n {
				t.Fatalf("copy %d holds %d", n, v)
			}
		}
	}
}

// TestNewAllocs: values come from chunks that double up to MaxChunk, so a
// full chunk's worth of values takes one allocation.
func TestNewAllocs(t *testing.T) {
	var s Slab[[4]int]
	first := s.New([4]int{1})
	for i := 0; i < 3*MaxChunk; i++ {
		s.New([4]int{})
	}
	if *first != [4]int{1} {
		t.Fatalf("first value %v", *first)
	}
	allocs := testing.AllocsPerRun(4, func() {
		for i := 0; i < MaxChunk; i++ {
			s.New([4]int{i})
		}
	})
	if allocs > 1 {
		t.Errorf("%d values: %.0f allocations, want ≤ 1 chunk", MaxChunk, allocs)
	}
}

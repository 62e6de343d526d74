package dyn

// Slab hands a decoder the field slices of the structs it builds, carved
// out of shared chunks, so a sequence of structs costs a few allocations
// instead of one per element. Each slice is zeroed, exactly as long as
// asked and without spare capacity, so filling it and passing it to
// AdoptStruct cannot reach a sibling's fields. The zero Slab is ready to
// use. One Slab serves one decode: the values built from it keep its chunks
// alive, so drop it when the decode ends and never park it in a pool.
type Slab struct {
	free  []Value // the unused tail of the newest chunk
	chunk int     // that chunk's size, which the next one doubles
}

// Grow readies one chunk for n more values, for a decoder whose wire format
// states the element count before the elements. n is what the input claims:
// the caller bounds it by the input's size first.
func (s *Slab) Grow(n int) {
	if n > len(s.free) {
		s.free, s.chunk = make([]Value, n), n
	}
}

// Take returns the next n values. Without a Grow that covers them, chunks
// grow geometrically from the first request, so a lone struct costs its own
// fields and a long sequence a logarithmic number of chunks.
func (s *Slab) Take(n int) []Value {
	if n > len(s.free) {
		s.Grow(max(n, 2*s.chunk))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

package dyn

import "unsafe"

// Slab hands a decoder the field slices of the structs it builds and the
// bytes of its strings, carved out of shared chunks, so a sequence of
// structs costs a few allocations instead of one or two per element. Each
// slice is zeroed, exactly as long as asked and without spare capacity, so
// filling it and passing it to AdoptStruct cannot reach a sibling's fields.
// The zero Slab is ready to use. One Slab serves one decode: the values
// built from it keep its chunks alive, one retained string or struct all of
// its chunk, so drop it when the decode ends and never park it in a pool.
type Slab struct {
	free  []Value // the unused tail of the newest field chunk
	chunk int     // that chunk's size, which the next one doubles
	text  []byte  // the unused tail of the newest string chunk
	texts int     // that chunk's size, which the next one doubles
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

// CopyString returns a copy of b, a string just read from the input, with
// rest octets of input left after it. String chunks grow geometrically from
// the first string's length but never past b and rest together: a lone
// string costs one allocation of its own length, and where no string decodes
// longer than its encoding, a decode's string chunks add up to at most about
// three times its input, whatever the input claims.
func (s *Slab) CopyString(b []byte, rest int) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > len(s.text) {
		s.texts = max(len(b), min(2*s.texts, len(b)+rest))
		s.text = make([]byte, s.texts)
	}
	out := unsafe.String(&s.text[0], copy(s.text, b))
	s.text = s.text[len(b):]
	return out
}

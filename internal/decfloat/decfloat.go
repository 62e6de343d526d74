// Package decfloat parses decimal float literals for the text codecs (SOAP
// and JSON). A literal whose value is an exact binary fraction, such as a
// float with few significant bits printed shortest, is converted by one
// exact division: strconv.ParseFloat sends many such literals with 17 or
// more digits to its slow multi-precision fallback. Every other literal is
// strconv's. It imports nothing of the repo, so any codec can use it.
package decfloat

import "strconv"

// maxK bounds k: 5^27 is the largest power of five a uint64 holds, and
// m·10^-k with k ≤ 27 and a 19-digit m is far inside either format's
// normal range.
const maxK = 27

// pow5[k] is 5^k.
var pow5 = func() (p [maxK + 1]uint64) {
	p[0] = 1
	for k := 1; k <= maxK; k++ {
		p[k] = p[k-1] * 5
	}
	return p
}()

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = func() (p [23]float64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * 10
	}
	return p
}()

// ParseFloat is strconv.ParseFloat(string(b), bits), value and error alike.
// It reads a literal [-+]digits[.digits][(e|E)[-+]digits] of at most 19
// digits as m·10^-k, k ≥ 0, and converts it itself when the result is one
// correctly rounded operation on exact operands:
//   - m·10^-k is q·2^-k with q = m/5^k an integer below 2^53 (2^24 when
//     bits is 32) and k ≤ 27: q / 2^k, which is exact;
//   - m is below 2^53 and k ≤ 22 (2^24 and 10 when bits is 32): m / 10^k,
//     strconv's own exact path.
//
// Every other literal goes to strconv.
func ParseFloat(b []byte, bits int) (float64, error) {
	if f, ok := exact(b, bits); ok {
		return f, nil
	}
	return strconv.ParseFloat(string(b), bits)
}

// exact returns the value of b when one of ParseFloat's two cases holds.
func exact(b []byte, bits int) (float64, bool) {
	i, neg := 0, false
	if i < len(b) && (b[i] == '-' || b[i] == '+') {
		neg = b[i] == '-'
		i++
	}
	var m uint64
	start := i
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	digits, k := i-start, 0
	if i < len(b) && b[i] == '.' {
		i++
		for start = i; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		k = i - start
		digits += k
	}
	if digits == 0 || digits > 19 { // past 19 digits m may have wrapped
		return 0, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '-' || b[i] == '+') {
			i++
		}
		e := 0
		for start = i; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			if e < 1000 { // past any k this can accept
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return 0, false
		}
		if eneg {
			e = -e
		}
		k -= e
	}
	if i != len(b) || k < 0 || k > maxK {
		return 0, false
	}
	var f float64
	switch {
	case bits == 32 && m < 1<<24 && k <= 10:
		f = float64(float32(m) / float32(pow10[k]))
	case bits != 32 && m < 1<<53 && k < len(pow10):
		f = float64(m) / pow10[k]
	default:
		q, limit := m/pow5[k], uint64(1)<<53
		if bits == 32 {
			limit = 1 << 24
		}
		if q*pow5[k] != m || q >= limit {
			return 0, false
		}
		f = float64(q) / float64(uint64(1)<<k)
	}
	if neg {
		f = -f
	}
	return f, true
}

// Package decfloat parses and formats float literals for the text codecs
// (SOAP and JSON), fast for what those mostly carry: exact binary fractions
// with few significant bits, such as an integer divided by 1024. Such a
// literal is parsed by one exact division, where strconv.ParseFloat sends
// many with 17 or more digits to its slow multi-precision fallback; such a
// float64, when its exact expansion is its shortest form, is written from
// that one integer, where strconv runs its shortest-digit search (Ryū).
// Everything else is strconv's. It imports nothing of the repo, so any
// codec can use it.
package decfloat

import (
	"math"
	"math/bits"
	"strconv"
)

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

// AppendFloat is strconv.AppendFloat(dst, f, fmt, -1, bitSize): the
// shortest digits that read back as f. For fmt 'e', 'f' and 'g' it writes
// them itself when they are an integer's exact digits:
//   - f is a float64 integer below 2^53 in magnitude;
//   - or f = ±m·2^-k, m odd, k ≥ 1 and 5^(k-1) < 2^(54-b), b the bit length
//     of m. The exact expansion m·5^k·10^-k ends in a 5 at its k-th
//     fractional digit, so every decimal with fewer digits lies at least
//     5·10^-k from f, more than half the gap to either neighbour of f,
//     which is at most 2^(b-54-k): the exact digits are the only shortest
//     ones. The bound also keeps m·5^k below 2^57.
//
// Zero, subnormals, infinities, NaN, float32 and every other value are
// strconv's.
func AppendFloat(dst []byte, f float64, fmt byte, bitSize int) []byte {
	var buf [24]byte
	d, dp, ok := exactDigits(buf[:0], f, bitSize)
	if !ok || fmt != 'e' && fmt != 'f' && fmt != 'g' {
		return strconv.AppendFloat(dst, f, fmt, -1, bitSize)
	}
	if f < 0 {
		dst = append(dst, '-')
	}
	// strconv's layout of digits d with the decimal point dp digits in: 'g'
	// is 'e' for exp < -4 or exp >= 6, the exponent at least two digits
	// (here never more: -23 ≤ exp ≤ 15).
	if exp := dp - 1; fmt == 'e' || fmt == 'g' && (exp < -4 || exp >= 6) {
		dst = append(dst, d[0])
		if len(d) > 1 {
			dst = append(append(dst, '.'), d[1:]...)
		}
		dst = append(dst, 'e', '+')
		if exp < 0 {
			dst[len(dst)-1], exp = '-', -exp
		}
		return append(dst, byte('0'+exp/10), byte('0'+exp%10))
	}
	const zeros = "0000000000000000000000" // -dp ≤ 22 (k ≤ 23), dp-len(d) ≤ 15
	switch {
	case dp <= 0:
		return append(append(append(dst, "0."...), zeros[:-dp]...), d...)
	case dp >= len(d):
		return append(append(dst, d...), zeros[:dp-len(d)]...)
	}
	return append(append(append(dst, d[:dp]...), '.'), d[dp:]...)
}

// exactDigits appends |f|'s digits, trailing zeros dropped, to buf and
// returns them and the decimal point's position if AppendFloat writes f.
func exactDigits(buf []byte, f float64, bitSize int) (d []byte, dp int, ok bool) {
	fb := math.Float64bits(f)
	e := int(fb>>52) & 0x7ff
	if bitSize != 64 || e == 0 || e == 0x7ff {
		return nil, 0, false
	}
	m := fb&(1<<52-1) | 1<<52
	tz := bits.TrailingZeros64(m)
	m >>= tz
	k, b := 1075-e-tz, bits.Len64(m) // f = ±m·2^-k
	switch {
	case k <= 0 && b-k <= 53:
		m, k = m<<-k, 0
	case k > 0 && k <= maxK && pow5[k-1] < 1<<(54-b):
		m *= pow5[k]
	default:
		return nil, 0, false
	}
	d = strconv.AppendUint(buf, m, 10)
	dp = len(d) - k
	for d[len(d)-1] == '0' {
		d = d[:len(d)-1]
	}
	return d, dp, true
}

package decfloat

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// formats are the ones AppendFloat writes itself; the others it hands to
// strconv unchanged.
var formats = []byte{'e', 'f', 'g'}

func sameFormatAsStrconv(t *testing.T, f float64, bitSize int) {
	t.Helper()
	for _, fmt := range append(formats, 'E', 'G', 'b', 'x') {
		got := string(AppendFloat([]byte("x"), f, fmt, bitSize))
		if want := "x" + strconv.FormatFloat(f, fmt, -1, bitSize); got != want {
			t.Fatalf("AppendFloat(%#x, %q, %d) = %q, strconv %q", math.Float64bits(f), fmt, bitSize, got, want)
		}
	}
}

// oddWithLen returns a random odd integer of bit length b.
func oddWithLen(rng *rand.Rand, b int) uint64 {
	if b == 1 {
		return 1
	}
	return 1<<(b-1) | rng.Uint64()&(1<<(b-1)-1) | 1
}

// TestAppendFloatMatchesStrconv: AppendFloat writes strconv's bytes for
// random bit patterns; for m·2^-k, k ≤ 30, with every bit length of m
// from 1 to 53, on both sides of the fast path's bound, and for their
// neighbours; and for powers of two, 2^53 ± 1 and 2, the signed zeros,
// subnormals, the infinities, NaN, and the float32 forms of each.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var fs []float64
	for range 20000 {
		fs = append(fs, math.Float64frombits(rng.Uint64()))
	}
	for k := 0; k <= 30; k++ {
		for b := 1; b <= 53; b++ {
			for range 4 {
				x := math.Ldexp(float64(oddWithLen(rng, b)), -k)
				fs = append(fs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
			}
		}
	}
	for e := -1074; e <= 1023; e++ {
		fs = append(fs, math.Ldexp(1, e))
	}
	fs = append(fs, 1<<53-2, 1<<53-1, 1<<53, 1<<53+2, 1<<53+4, 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.Float64frombits(1<<52-1), math.Float64frombits(1<<52),
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 0.1, 1e6, 1e-5, 1e21, 1e-7)
	for _, f := range fs {
		sameFormatAsStrconv(t, f, 64)
		sameFormatAsStrconv(t, -f, 64)
		sameFormatAsStrconv(t, float64(float32(f)), 32)
	}
}

// TestAppendFloatTakesExactPath: the fast path takes what its bound says,
// and the benchmark's floats, a random int32 divided by 1024.
func TestAppendFloatTakesExactPath(t *testing.T) {
	for _, c := range []struct {
		f    float64
		bits int
		ok   bool
	}{
		{1, 64, true},
		{-3.75, 64, true},
		{2097151.9990234375, 64, true},
		{1 << 52, 64, true},
		{1<<53 - 1, 64, true},
		{1 << 53, 64, false},
		{1<<53 + 2, 64, false},
		{0.1, 64, false},
		{0, 64, false},
		{math.SmallestNonzeroFloat64, 64, false},
		{math.Inf(1), 64, false},
		{0.5, 32, false},
		{0x1p-23, 64, true},  // 5^22 < 2^53
		{0x1p-24, 64, false}, // 5^23 > 2^53
		{0x5p-22, 64, true},  // b = 3: 5^21 < 2^51
		{0x5p-23, 64, false}, // 5^22 > 2^51
	} {
		if _, _, ok := exactDigits(nil, c.f, c.bits); ok != c.ok {
			t.Errorf("exactDigits(%v, %d) ok = %v, want %v", c.f, c.bits, ok, c.ok)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 10000 {
		if f := float64(rng.Int32()) / 1024; f != 0 {
			if _, _, ok := exactDigits(nil, f, 64); !ok {
				t.Fatalf("%v goes to strconv", f)
			}
		}
	}
}

// FuzzAppendFloat: every float64 bit pattern, in every format, and its
// float32 rounding, is written as strconv writes it.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range []float64{0, 1, -3.75, 2097151.9990234375, 0.1, 1e6, 1e-5, 0x1p-21, 1e21, math.Inf(-1), math.NaN()} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		sameFormatAsStrconv(t, x, 64)
		sameFormatAsStrconv(t, float64(float32(x)), 32)
		// Random bits seldom have few significant ones: the fast path's
		// shape is also made of them, as m·2^-k with m below 2^53.
		sameFormatAsStrconv(t, math.Ldexp(float64(bits>>11), -int(bits&63)), 64)
	})
}

// BenchmarkAppendFloat writes 256 random int32 values divided by 1024 (the
// bulk payload's floats), by 1000 and by 3, in each format, with this
// package and with strconv.
func BenchmarkAppendFloat(b *testing.B) {
	for _, div := range []float64{1024, 1000, 3} {
		rng := rand.New(rand.NewPCG(1, 2))
		fs := make([]float64, 256)
		for i := range fs {
			fs[i] = float64(rng.Int32()) / div
		}
		for _, fmt := range formats {
			name := "k/" + strconv.FormatFloat(div, 'g', -1, 64) + "/" + string(fmt)
			buf := make([]byte, 0, 64)
			b.Run(name+"/decfloat", func(b *testing.B) {
				for b.Loop() {
					for _, f := range fs {
						buf = AppendFloat(buf[:0], f, fmt, 64)
					}
				}
			})
			b.Run(name+"/strconv", func(b *testing.B) {
				for b.Loop() {
					for _, f := range fs {
						buf = strconv.AppendFloat(buf[:0], f, fmt, -1, 64)
					}
				}
			})
		}
	}
}

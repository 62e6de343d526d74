package decfloat

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// literals are the edges of the exact paths: signed zeros, a bare dot on
// either side, signs, exponents, 19 and 20 digits, a mantissa past 2^53
// that 5 does not divide, q at and just below 2^24 and 2^53, k at and past
// 27, and what only strconv takes (hex, underscores, inf, nan) or refuses.
var literals = []string{
	"0", "-0", "+0", "0.0", "-0.000", "0e5", "-0e-5", "0e999999999999999999",
	"5.", ".5", "-.5", "+.5", "+1", "-1", "1.5", "-1.5", "1e0", "1E1", "15e-1",
	"1.5e+1", "1.5e-1", "25e-2", "1.e1", "1613492.6904296875", "-1613492.6904296875",
	"0.1", "0.2", "0.3", "3.14159", "1e-27", "5e-27", "7450580596923828125e-27",
	"1490116119384765625e-27", "1490116119384765625e-28",
	"1234567890123456789", "12345678901234567890", "1234567890123456789e-19",
	"0.5000000000000000000", "0.50000000000000000000", "00000000000000000001.5",
	"9007199254740993e-1", "9007199254740993", "9007199254740992", "9007199254740991",
	"4503599627370495.5", "4503599627370496.5", "8388607.5", "8388608.5",
	"16777215", "16777216", "16777217", "4194303.75", "4194304.25",
	"2097151.9990234375", "-2097152", "1e22", "1e23", "1e308", "1e309", "1e-400",
	"4.9e-324", "3.4028235e38", "3.4028236e38", "1e-46",
	"0x1p-2", "0x1.8p1", "1_000", "0x_1p0", "inf", "+Inf", "-infinity", "NaN", "nan",
	"", "-", "+", ".", "-.", "e5", ".e5", "1e", "1e+", "1e-", "1e+-1", "--1",
	"1.5.5", "1..5", " 1", "1 ", "1x", "1e5x", "٣", "1e\x00",
}

func sameAsStrconv(t *testing.T, s string, bits int) {
	t.Helper()
	got, err := ParseFloat([]byte(s), bits)
	want, werr := strconv.ParseFloat(s, bits)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("ParseFloat(%q, %d): error %v, strconv %v", s, bits, err, werr)
	}
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("ParseFloat(%q, %d) = %v (%#x), strconv %v (%#x)",
			s, bits, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestParseFloatMatchesStrconv: every literal, at both sizes, parses to
// strconv's bits and strconv's error text.
func TestParseFloatMatchesStrconv(t *testing.T) {
	for _, s := range literals {
		for _, bits := range []int{32, 64} {
			sameAsStrconv(t, s, bits)
		}
	}
}

// TestParseFloatTakesExactPath: the shapes the exact paths are for take
// them, and the ones past their limits do not.
func TestParseFloatTakesExactPath(t *testing.T) {
	for _, c := range []struct {
		s    string
		bits int
		ok   bool
	}{
		{"1613492.6904296875", 64, true},
		{"-0", 64, true},
		{"5.", 64, true},
		{".5", 32, true},
		{"8388607.5", 32, true},
		{"16777215", 32, true},
		{"16777216", 32, false},
		{"4503599627370495.5", 64, true},
		{"9007199254740992", 64, false},
		{"9007199254740993e-1", 64, false},
		{"1234567890123456789", 64, false},
		{"0.50000000000000000000", 64, false},
		{"1e-27", 64, false},
		{"7450580596923828125e-27", 64, true},
		{"0.1", 64, true},
		{"0.1", 32, true},
		{"2147483.647", 64, true},
		{"2147483.647", 32, false},
		{"1e-23", 64, false},
		{"715827882.3333334", 64, true},
		{"1431655764.6666667", 64, false},
		{"1e1", 64, false},
		{"0x1p-2", 64, false},
	} {
		if _, ok := exact([]byte(c.s), c.bits); ok != c.ok {
			t.Errorf("exact(%q, %d) ok = %v, want %v", c.s, c.bits, ok, c.ok)
		}
	}
}

// TestParseFloatBinaryFractions: random binary fractions printed shortest,
// the shape the bulk payloads carry, all parse to strconv's bits.
func TestParseFloatBinaryFractions(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for range 20000 {
		den := float64(uint64(1) << rng.IntN(28))
		f := float64(rng.Int32()) / den
		s := strconv.FormatFloat(f, 'g', -1, 64)
		sameAsStrconv(t, s, 64)
		sameAsStrconv(t, strconv.FormatFloat(f, 'f', -1, 64), 64)
		f32 := float32(rng.Int32()>>8) / float32(den)
		sameAsStrconv(t, strconv.FormatFloat(float64(f32), 'g', -1, 32), 32)
	}
}

func FuzzParseFloat(f *testing.F) {
	for _, s := range literals {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sameAsStrconv(t, s, 32)
		sameAsStrconv(t, s, 64)
	})
}

// BenchmarkParseFloat reads 256 shortest-printed random int32 values
// divided by 1024 (exact binary fractions, the bulk payload's shape), by
// 1000 and by 3, with this package and with strconv.
func BenchmarkParseFloat(b *testing.B) {
	for _, div := range []float64{1024, 1000, 3} {
		rng := rand.New(rand.NewPCG(1, 2))
		lits := make([][]byte, 256)
		for i := range lits {
			lits[i] = strconv.AppendFloat(nil, float64(rng.Int32())/div, 'g', -1, 64)
		}
		b.Run(fmt.Sprintf("k/%g/decfloat", div), func(b *testing.B) {
			for b.Loop() {
				for _, lit := range lits {
					if _, err := ParseFloat(lit, 64); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("k/%g/strconv", div), func(b *testing.B) {
			for b.Loop() {
				for _, lit := range lits {
					if _, err := strconv.ParseFloat(string(lit), 64); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

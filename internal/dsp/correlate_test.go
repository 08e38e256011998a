package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceCrossCorrelate is the one-lag-at-a-time correlator that
// CrossCorrelate's blocked kernel must reproduce bit for bit: a single dot
// product per lag, summed in template order, normalised in the same pass.
func referenceCrossCorrelate(signal, template []float64) []float64 {
	n := len(template)
	if n == 0 || len(signal) < n {
		return nil
	}
	tNorm := 0.0
	for _, t := range template {
		tNorm += t * t
	}
	tNorm = math.Sqrt(tNorm)
	if tNorm == 0 {
		return nil
	}

	out := make([]float64, len(signal)-n+1)
	var wEnergy float64
	for i := 0; i < n; i++ {
		wEnergy += signal[i] * signal[i]
	}
	for k := range out {
		dot := 0.0
		for i := 0; i < n; i++ {
			dot += signal[k+i] * template[i]
		}
		if wEnergy > 0 {
			out[k] = dot / (math.Sqrt(wEnergy) * tNorm)
		}
		if k+n < len(signal) {
			wEnergy += signal[k+n]*signal[k+n] - signal[k]*signal[k]
			if wEnergy < 0 {
				wEnergy = 0
			}
		}
	}
	return out
}

// diffBits describes the first difference between got and want, compared
// bit for bit with any two NaNs counted as equal, or returns "" when they
// are identical (nil and empty are told apart).
func diffBits(got, want []float64) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("len %d (nil %v), reference len %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			return fmt.Sprintf("index %d = %v (%#x), reference %v (%#x)", i, got[i], g, want[i], w)
		}
	}
	return ""
}

func checkCorrelateBitExact(t *testing.T, name string, signal, template []float64) {
	t.Helper()
	if d := diffBits(CrossCorrelate(signal, template), referenceCrossCorrelate(signal, template)); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
}

func TestCrossCorrelateBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	gauss := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		return xs
	}
	chips := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(2*rng.Intn(2) - 1)
		}
		return xs
	}

	// Every template length 1–400, with lag counts around and between the
	// 8-lag blocks: fewer than one block, exact multiples, and remainders.
	for n := 1; n <= 400; n++ {
		for _, lags := range []int{1, 7, 8, 9, 8*(n%5) + n%8 + 1} {
			signal := gauss(n + lags - 1)
			checkCorrelateBitExact(t, "±1 template", signal, chips(n))
			checkCorrelateBitExact(t, "gaussian template", signal, gauss(n))
		}
	}

	// The Receive shape: a scaled, noisy ±1 preamble inside a long capture.
	tmpl := Upsample(chips(64), 5)
	signal := gauss(8400)
	for i := range signal {
		signal[i] *= 8.4e-9
	}
	for i, c := range tmpl {
		signal[3001+i] += 1.1e-8 * c
	}
	checkCorrelateBitExact(t, "preamble capture", signal, tmpl)

	// Silent windows: leading, interior and trailing zeros force the
	// zero-energy branch and the drift clamp.
	silent := make([]float64, 300)
	copy(silent[100:], gauss(60))
	silent[250] = 1e-300
	for _, n := range []int{1, 3, 8, 17, 40} {
		checkCorrelateBitExact(t, "silent windows", silent, gauss(n))
	}
	checkCorrelateBitExact(t, "all zero", make([]float64, 64), chips(9))

	// Large dynamic range makes the rolling energy cancel badly.
	wild := gauss(200)
	for i := range wild {
		wild[i] *= math.Pow(10, float64(rng.Intn(40)-20))
	}
	checkCorrelateBitExact(t, "wide dynamic range", wild, gauss(33))

	// Degenerate inputs return nil on both paths.
	checkCorrelateBitExact(t, "short signal", gauss(3), gauss(4))
	checkCorrelateBitExact(t, "empty template", gauss(3), nil)
	checkCorrelateBitExact(t, "zero template", gauss(30), make([]float64, 5))
}

// fuzzFloats decodes one float64 per input byte. Reserved byte values map
// to NaN, ±Inf, subnormals and the extremes so the kernel meets IEEE 754
// special cases often; the rest spread over [−1, 1].
func fuzzFloats(raw []byte) []float64 {
	xs := make([]float64, len(raw))
	for i, b := range raw {
		switch b {
		case 0:
			xs[i] = math.NaN()
		case 1:
			xs[i] = math.Inf(1)
		case 2:
			xs[i] = math.Inf(-1)
		case 3:
			xs[i] = math.SmallestNonzeroFloat64
		case 4:
			xs[i] = -math.Float64frombits(0x000F_FFFF_FFFF_FFFF) // largest subnormal
		case 5:
			xs[i] = math.MaxFloat64
		case 6:
			xs[i] = 0
		default:
			xs[i] = float64(b)/127.5 - 1
		}
	}
	return xs
}

// FuzzCrossCorrelate requires the blocked correlator to match the
// one-lag-at-a-time reference bit for bit on arbitrary signals and
// templates, IEEE 754 specials included (any two NaNs count as equal).
func FuzzCrossCorrelate(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{10, 200, 30, 40, 50, 60, 70, 80, 90, 100}, []byte{255, 7})
	f.Add([]byte{6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 3, 4, 0, 1, 2, 5}, []byte{255, 7, 128})
	f.Add([]byte("a capture long enough for a block or two of lags"), []byte("preamble"))

	f.Fuzz(func(t *testing.T, sig, tmpl []byte) {
		if len(sig) > 4096 || len(tmpl) > 512 {
			return
		}
		signal, template := fuzzFloats(sig), fuzzFloats(tmpl)
		if d := diffBits(CrossCorrelate(signal, template), referenceCrossCorrelate(signal, template)); d != "" {
			t.Fatal(d)
		}
	})
}

// BenchmarkCrossCorrelatePreamble times the receiver's preamble search: an
// 8 400-sample capture against the 320-tap upsampled preamble.
func BenchmarkCrossCorrelatePreamble(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tmpl := make([]float64, 0, 320)
	for i := 0; i < 64; i++ {
		c := float64(2*rng.Intn(2) - 1)
		for j := 0; j < 5; j++ {
			tmpl = append(tmpl, c)
		}
	}
	signal := make([]float64, 8400)
	for i := range signal {
		signal[i] = 8.4e-9 * rng.NormFloat64()
	}
	for i, c := range tmpl {
		signal[240+i] += 1.1e-8 * c
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CrossCorrelate(signal, tmpl)
	}
}

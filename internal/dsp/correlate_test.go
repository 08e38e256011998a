package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceCrossCorrelate is the one-lag-at-a-time correlator whose first
// maximum CorrelationPeak must reproduce bit for bit: a single dot product
// per lag, summed in template order, normalised by the rolling window
// energy in the same pass.
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

// referenceFindPeak returns the index and value of the first maximum of xs
// (a later value wins only when strictly greater), or (-1, 0) for an empty
// slice.
func referenceFindPeak(xs []float64) (int, float64) {
	if len(xs) == 0 {
		return -1, 0
	}
	best, bestV := 0, xs[0]
	for i, v := range xs {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// diffPeak describes how CorrelationPeak differs from the reference peak,
// comparing the value bit for bit with any two NaNs counted as equal, or
// returns "" when they agree.
func diffPeak(signal, template []float64) string {
	gi, gv := CorrelationPeak(signal, template)
	wi, wv := referenceFindPeak(referenceCrossCorrelate(signal, template))
	if gi == wi && (math.Float64bits(gv) == math.Float64bits(wv) || math.IsNaN(gv) && math.IsNaN(wv)) {
		return ""
	}
	return fmt.Sprintf("peak %d = %v (%#x), reference %d = %v (%#x)", gi, gv, math.Float64bits(gv), wi, wv, math.Float64bits(wv))
}

func checkPeakBitExact(t *testing.T, name string, signal, template []float64) {
	t.Helper()
	if d := diffPeak(signal, template); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
}

// correlationCounterexample is a capture whose reference peak exceeds 1:
// lag 11 repeats lag 0's window exactly, but the rolling window energy has
// drifted by then, so lag 11 scores 1.0000000000000002 and beats lag 0's 1.
// A bound that assumes correlations never exceed 1 drops it. The bytes
// decode through fuzzFloats.
var correlationCounterexample = [2][]byte{
	{180, 208, 109, 39, 42, 161, 34, 233, 244, 207, 173, 180, 208, 109, 39, 42, 161, 34, 233, 244, 207, 64, 77, 60, 170, 133, 221, 92, 24, 196, 153, 200, 182, 142},
	{180, 208, 109, 39, 42, 161, 34, 233, 244, 207},
}

func TestCorrelationPeakBitExact(t *testing.T) {
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
	plant := func(signal, template []float64, at int, amp float64) {
		for i, c := range template {
			signal[at+i] += amp * c
		}
	}

	// Every template length 1–400, with lag counts around and between the
	// 8-lag blocks: fewer than one block, exact multiples, and remainders.
	for n := 1; n <= 400; n++ {
		for _, lags := range []int{1, 7, 8, 9, 8*(n%5) + n%8 + 1, 8*(n%11) + n%8 + 17} {
			signal := gauss(n + lags - 1)
			checkPeakBitExact(t, "±1 template", signal, chips(n))
			checkPeakBitExact(t, "gaussian template", signal, gauss(n))
		}
	}

	// An SNR ladder: the template planted early in noise, from buried to
	// dominant, so that later blocks are dropped at every checkpoint depth
	// and near misses sit close to the bound.
	for _, n := range []int{1, 2, 3, 5, 8, 9, 16, 17, 40, 63, 64, 101, 320} {
		for _, amp := range []float64{0, 0.05, 0.2, 0.5, 1, 2, 5, 20, 1e3, 1e6} {
			for _, tmpl := range [][]float64{chips(n), gauss(n)} {
				signal := gauss(n + 300)
				plant(signal, tmpl, 3+rng.Intn(20), amp)
				plant(signal, tmpl, 60+rng.Intn(200), amp*(0.5+rng.Float64()))
				checkPeakBitExact(t, fmt.Sprintf("ladder n=%d amp=%g", n, amp), signal, tmpl)
			}
		}
	}

	// Exact repeats in silence: every copy scores 1 up to the drift of the
	// rolling energy, the union rest windows hold nothing but the copy, so
	// the bound is as tight as Cauchy–Schwarz allows. Equal peaks must go
	// to the first copy, and a copy one ulp above every earlier one must
	// not be dropped.
	for _, n := range []int{2, 5, 8, 13, 24, 40, 64, 100} {
		for trial := 0; trial < 40; trial++ {
			tmpl := gauss(n)
			if trial%2 == 0 {
				tmpl = chips(n)
			}
			signal := make([]float64, 40*(n+8))
			for at := rng.Intn(8); at+n <= len(signal); at += n + 1 + rng.Intn(n+8) {
				amp := 1.0
				if trial%4 >= 2 {
					amp = math.Ldexp(0.5+rng.Float64(), rng.Intn(9)-4)
				}
				plant(signal, tmpl, at, amp)
			}
			checkPeakBitExact(t, fmt.Sprintf("exact repeats n=%d trial %d", n, trial), signal, tmpl)
		}
	}

	// The fixed regression case: a computed correlation above 1.
	signal, tmpl := fuzzFloats(correlationCounterexample[0]), fuzzFloats(correlationCounterexample[1])
	if i, v := referenceFindPeak(referenceCrossCorrelate(signal, tmpl)); i != 11 || v <= 1 {
		t.Fatalf("counterexample reference peak %d = %v, want lag 11 above 1", i, v)
	}
	checkPeakBitExact(t, "correlation above 1", signal, tmpl)

	// The Receive shape: a scaled, noisy ±1 preamble inside a long capture.
	preamble := Upsample(chips(64), 5)
	capture := gauss(8400)
	for i := range capture {
		capture[i] *= 8.4e-9
	}
	plant(capture, preamble, 3001, 1.1e-8)
	checkPeakBitExact(t, "preamble capture", capture, preamble)
	plant(capture, preamble, 240, 1.1e-8)
	checkPeakBitExact(t, "early preamble capture", capture, preamble)

	// Silent windows: leading, interior and trailing zeros force the
	// zero-energy branch and the drift clamp.
	silent := make([]float64, 300)
	copy(silent[100:], gauss(60))
	silent[250] = 1e-300
	for _, n := range []int{1, 3, 8, 17, 40} {
		checkPeakBitExact(t, "silent windows", silent, gauss(n))
		neg := gauss(n)
		for i := range neg {
			neg[i] = -math.Abs(neg[i]) // every live lag negative: a silent lag's 0 wins
		}
		pos := make([]float64, 300)
		copy(pos[150:], gauss(60))
		for i := range pos {
			pos[i] = math.Abs(pos[i])
		}
		checkPeakBitExact(t, "negative template", pos, neg)
	}
	checkPeakBitExact(t, "all zero", make([]float64, 64), chips(9))

	// IEEE 754 specials: a NaN at lag 0 is the peak; a NaN or an infinity
	// later poisons the rolling energies from there on.
	for _, n := range []int{1, 4, 16, 40} {
		nan := gauss(n + 100)
		nan[0] = math.NaN()
		checkPeakBitExact(t, "NaN at lag 0", nan, gauss(n))
		for _, special := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64} {
			later := gauss(n + 100)
			plant(later, chips(n), 2, 10)
			later[n+50] = special
			checkPeakBitExact(t, fmt.Sprintf("%v in a later window", special), later, chips(n))
		}
	}

	// Large dynamic range makes the rolling energies cancel badly.
	for _, n := range []int{9, 33, 64} {
		wild := gauss(400)
		for i := range wild {
			wild[i] *= math.Pow(10, float64(rng.Intn(40)-20))
		}
		checkPeakBitExact(t, "wide dynamic range", wild, gauss(n))
		tiny := gauss(200)
		for i := range tiny {
			tiny[i] *= 1e-160 // products underflow
		}
		plant(tiny, chips(n), 5, 1e-159)
		checkPeakBitExact(t, "subnormal products", tiny, chips(n))
	}

	// Degenerate inputs give (-1, 0) on both paths.
	checkPeakBitExact(t, "short signal", gauss(3), gauss(4))
	checkPeakBitExact(t, "empty template", gauss(3), nil)
	checkPeakBitExact(t, "zero template", gauss(30), make([]float64, 5))
}

// TestCorrelationPeakAllocs pins the preamble search at zero heap
// allocations per call (//lint:hotpath proves the same statically; keep
// scripts/bench.sh's alignment list in sync).
func TestCorrelationPeakAllocs(t *testing.T) {
	signal, tmpl := preambleCapture()
	if allocs := testing.AllocsPerRun(20, func() { CorrelationPeak(signal, tmpl) }); allocs != 0 {
		t.Fatalf("CorrelationPeak allocates %v times per call, want 0", allocs)
	}
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

// FuzzCorrelationPeak requires the early-abandoning search to return the
// reference peak's index and value bits on arbitrary signals and templates,
// IEEE 754 specials included (any two NaNs count as equal).
func FuzzCorrelationPeak(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{10, 200, 30, 40, 50, 60, 70, 80, 90, 100}, []byte{255, 7})
	f.Add([]byte{6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 3, 4, 0, 1, 2, 5}, []byte{255, 7, 128})
	f.Add([]byte("a capture long enough for a block or two of lags"), []byte("preamble"))
	f.Add(correlationCounterexample[0], correlationCounterexample[1])

	f.Fuzz(func(t *testing.T, sig, tmpl []byte) {
		if len(sig) > 4096 || len(tmpl) > 512 {
			return
		}
		if d := diffPeak(fuzzFloats(sig), fuzzFloats(tmpl)); d != "" {
			t.Fatal(d)
		}
	})
}

// preambleCapture is the receiver's preamble search input: an 8 400-sample
// noisy capture holding the 320-tap upsampled preamble at lag 240.
func preambleCapture() (signal, tmpl []float64) {
	rng := rand.New(rand.NewSource(1))
	tmpl = make([]float64, 0, 320)
	for i := 0; i < 64; i++ {
		c := float64(2*rng.Intn(2) - 1)
		for j := 0; j < 5; j++ {
			tmpl = append(tmpl, c)
		}
	}
	signal = make([]float64, 8400)
	for i := range signal {
		signal[i] = 8.4e-9 * rng.NormFloat64()
	}
	for i, c := range tmpl {
		signal[240+i] += 1.1e-8 * c
	}
	return signal, tmpl
}

// peakSink keeps BenchmarkCorrelationPeak's result live.
var peakSink int

// BenchmarkCorrelationPeak times the receiver's preamble search on
// preambleCapture.
func BenchmarkCorrelationPeak(b *testing.B) {
	signal, tmpl := preambleCapture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		peakSink, _ = CorrelationPeak(signal, tmpl)
	}
}

package dsp

import "math"

// CorrelationPeak returns the lag and value of the largest normalised
// cross-correlation of the template against the signal, over every lag k in
// [0, len(signal)−len(template)]:
//
//	c[k] = Σ_i signal[k+i]·template[i] / (‖signal[k:k+n]‖·‖template‖)
//
// Values are in [−1, 1] up to rounding; 1 means a perfect scaled match, and
// a window of zero energy scores 0. Lags are scanned in order and a lag wins
// only by a strictly larger value, so ties go to the first lag, a NaN at
// lag 0 is returned as the peak and a later NaN never wins. An empty or
// all-zero template, or a signal shorter than the template, gives (−1, 0).
// Receivers use it to locate the frame preamble and transmitters to detect
// the NLOS synchronisation pilot.
//
// The result is bit-identical to normalising every lag and taking the
// first maximum: each lag that is computed sums signal[k+i]·template[i] in
// template order and divides by the same rolling window energy. Lags run in
// blocks of eight, one register accumulator each. At up to seven
// checkpoints p in the template, a block whose lags provably cannot beat
// the running peak is dropped (early abandoning); the rest run to the end.
//
// Why dropping is exact. Write u = 2⁻⁵³, η = 2⁻¹⁰⁷⁵ (the absolute error of
// a product that underflows; additions are exact in the subnormal range),
// m = n−p, and a_j for the computed partial sum of lag k+j at p. The bounds
// hold whether or not the compiler fuses a multiply-add.
//
//  1. By Cauchy–Schwarz the rest obeys Σ_{i≥p} |signal[k+j+i]·template[i]|
//     ≤ √E·T, with T = ‖template[p:]‖ and E the energy of
//     signal[k+p : k+n+7], the union of the block's eight rest windows.
//     Continuing the sum from a_j is a recursive sum of m products, so the
//     computed dot product is D_j ≤ a_j + √E·T + γ(|a_j| + √E·T) + m·η with
//     γ = (m+1)u/(1−(m+1)u) < 1.01(m+1)u.
//  2. E is tracked by a rolling sum e that slides eight samples per block
//     and a running bound err ≥ |e − E|. The initial direct sum is within
//     γ_{m+7}·e; each slide adds at most 9.1u·(new+old) + 1.01u·|e′|, where
//     new and old are the computed square sums entering and leaving and e′
//     the updated sum. err accumulates those terms at 32u, which also pays
//     for its own rounding. The clamp at zero only moves e towards E ≥ 0.
//     Squares that underflow add at most η each (m+7 in the initial sum,
//     17η per slide with err's own update); absE covers them.
//  3. tHi ≥ T: the computed Σ template[p:]² is inflated by (2m+8)u plus
//     (m+2)·2⁻¹⁰⁷⁴ before the square root, and the root by 8u.
//  4. The bound is evaluated as c = √(e+err+absE)·tHi,
//     y = c + (|a_j|+c)·g, Dmax = a_j + y + absD, with g = (2m+32)u and
//     absD = (n+8)·2⁻¹⁰⁷². c ≥ (1−3u)·√E·T − η, and the roundings
//     in y and Dmax lose at most 3u·(|a_j|+y); g ≥ γ + 14u pays for both,
//     absD for m·η and the underflow of c and y. So D_j ≤ Dmax. With
//     |a_j|+y < 2¹⁰²⁰ no partial sum of the rest can overflow.
//  5. For a positive, finite denominator d = √w·‖template‖, w the lag's
//     rolling window energy, division rounds monotonically: D_j ≤ Dmax
//     gives fl(D_j/d) ≤ fl(Dmax/d), so the division needs no margin. A lag
//     of zero window energy scores exactly 0.
//
// A block is dropped only when every lag has fl(Dmax/d) ≤ the running peak
// (a lag that could only equal it cannot win). Computed correlations may
// exceed 1 by a few ulps, so no margin is taken from the value range. A NaN
// or an infinity anywhere in a bound fails the ≤ test, and that block is
// computed in full.
//
//lint:hotpath
func CorrelationPeak(signal, template []float64) (int, float64) {
	n := len(template)
	if n == 0 || len(signal) < n {
		return -1, 0
	}
	tNorm := 0.0
	for _, t := range template {
		tNorm += t * t
	}
	tNorm = math.Sqrt(tNorm)
	if tNorm == 0 {
		return -1, 0
	}
	lags := len(signal) - n + 1

	var wEnergy float64
	for i := 0; i < n; i++ {
		wEnergy += signal[i] * signal[i]
	}
	best, bestV := -1, 0.0
	var rest restBound
	if lags >= 2*corrBlock { // block 0 is never dropped
		rest.init(signal, template)
	}
	k := 0
	for ; k+corrBlock <= lags; k += corrBlock {
		// The block's window energies and denominators, advanced by the
		// same recurrence, in the same order, as one lag at a time.
		var we, den, acc [corrBlock]float64
		for j := range we {
			we[j] = wEnergy
			den[j] = math.Sqrt(wEnergy) * tNorm
			wEnergy = slideEnergy(wEnergy, signal, k+j, n)
		}
		s := signal[k:]
		from := 0
		dropped := false
		for c := 0; c < rest.cps && k > 0; c++ {
			p := rest.p[c]
			dotBlock(&acc, s[from:p+corrBlock-1], template[from:p])
			from = p
			if rest.cannotBeat(c, &acc, &we, &den, bestV) {
				dropped = true
				break
			}
		}
		if !dropped {
			dotBlock(&acc, s[from:n+corrBlock-1], template[from:])
			for j, dot := range acc {
				v := 0.0
				if we[j] > 0 {
					v = dot / den[j]
				}
				if best < 0 || v > bestV {
					best, bestV = k+j, v
				}
			}
			if math.IsNaN(bestV) || math.IsInf(bestV, 1) {
				return best, bestV // nothing compares greater
			}
		}
		if k+2*corrBlock <= lags && rest.cps > 0 {
			rest.slide(signal, k, n)
		}
	}
	for ; k < lags; k++ {
		s := signal[k : k+n]
		dot := 0.0
		for i, t := range template {
			dot += s[i] * t
		}
		v := 0.0
		if wEnergy > 0 {
			v = dot / (math.Sqrt(wEnergy) * tNorm)
		}
		if best < 0 || v > bestV {
			best, bestV = k, v
		}
		wEnergy = slideEnergy(wEnergy, signal, k, n)
	}
	return best, bestV
}

// corrBlock is the number of lags CorrelationPeak carries per pass, one
// register accumulator each.
const corrBlock = 8

// slideEnergy advances the rolling energy of signal[k:k+n] to the window
// one lag on, clamped at zero against floating-point drift.
func slideEnergy(e float64, signal []float64, k, n int) float64 {
	if k+n < len(signal) {
		e += signal[k+n]*signal[k+n] - signal[k]*signal[k]
		if e < 0 {
			e = 0
		}
	}
	return e
}

// dotBlock adds Σ_i s[i+j]·tmpl[i] to acc[j] for the eight lags j, in
// template order, so a sum split across calls matches one unbroken loop;
// s holds len(tmpl)+7 samples.
func dotBlock(acc *[corrBlock]float64, s, tmpl []float64) {
	a0, a1, a2, a3, a4, a5, a6, a7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	for i, t := range tmpl {
		w := s[i : i+8 : i+8]
		a0 += w[0] * t
		a1 += w[1] * t
		a2 += w[2] * t
		a3 += w[3] * t
		a4 += w[4] * t
		a5 += w[5] * t
		a6 += w[6] * t
		a7 += w[7] * t
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = a0, a1, a2, a3, a4, a5, a6, a7
}

// restBound carries CorrelationPeak's early-abandoning state: for each
// checkpoint p, the rolling energy of the current block's rest windows and
// the bounds of steps 2–4 in CorrelationPeak's derivation.
type restBound struct {
	cps  int                     // number of checkpoints in use
	p    [maxCheckpoints]int     // checkpoints, increasing, in (0, n)
	tHi  [maxCheckpoints]float64 // upper bound on ‖template[p:]‖
	g    [maxCheckpoints]float64 // relative slack of the rest bound
	e    [maxCheckpoints]float64 // energy of signal[k+p : k+n+7]
	err  [maxCheckpoints]float64 // bound on |e − exact energy|
	absE float64                 // absolute slack for underflowed squares
	absD float64                 // absolute slack for underflowed products
}

// maxCheckpoints is the number of template positions, equally spaced, at
// which a block may be dropped.
const maxCheckpoints = 7

// unitRoundoff is u = 2⁻⁵³, the relative error of one float64 rounding.
const unitRoundoff = 0x1p-53

// init places the checkpoints at c·n/8 and computes the block-0 rest
// energies directly; signal must hold at least n+7 samples.
func (r *restBound) init(signal, template []float64) {
	n := len(template)
	r.absE = float64(2*len(signal)+n+8) * 0x1p-1074
	r.absD = float64(n+8) * 0x1p-1072
	for c := 1; c <= maxCheckpoints; c++ {
		p := c * n / (maxCheckpoints + 1)
		if p == 0 || (r.cps > 0 && p == r.p[r.cps-1]) {
			continue
		}
		m := n - p
		t2 := 0.0
		for _, t := range template[p:] {
			t2 += t * t
		}
		e := 0.0
		for _, x := range signal[p : n+corrBlock-1] {
			e += x * x
		}
		r.p[r.cps] = p
		r.tHi[r.cps] = math.Sqrt(t2+t2*float64(2*m+8)*unitRoundoff+float64(m+2)*0x1p-1074) * (1 + 8*unitRoundoff)
		r.g[r.cps] = float64(2*m+32) * unitRoundoff
		r.e[r.cps] = e
		r.err[r.cps] = e * float64(2*m+22) * unitRoundoff
		r.cps++
	}
}

// slide moves every rest energy from the block at lag k to the block at
// lag k+8, growing its error bound; the next block must be a full one.
func (r *restBound) slide(signal []float64, k, n int) {
	in := 0.0
	for _, x := range signal[k+n+corrBlock-1 : k+n+2*corrBlock-1] {
		in += x * x
	}
	for c := 0; c < r.cps; c++ {
		out := 0.0
		for _, x := range signal[k+r.p[c] : k+r.p[c]+corrBlock] {
			out += x * x
		}
		e := r.e[c] + (in - out)
		r.err[c] += (in + out + math.Abs(e)) * (32 * unitRoundoff)
		if e < 0 {
			e = 0
		}
		r.e[c] = e
	}
}

// cannotBeat reports whether no lag of the block can beat bestV, given the
// partial dot products acc over template[:p] at checkpoint c and the lags'
// window energies we and denominators den.
func (r *restBound) cannotBeat(c int, acc, we, den *[corrBlock]float64, bestV float64) bool {
	rest := math.Sqrt(r.e[c]+r.err[c]+r.absE) * r.tHi[c]
	g := r.g[c]
	for j, a := range acc {
		if !(we[j] > 0) {
			if 0 > bestV {
				return false
			}
			continue
		}
		d := den[j]
		y := rest + (math.Abs(a)+rest)*g
		if !(math.Abs(a)+y < 0x1p1020) || !(d > 0 && d <= math.MaxFloat64) {
			return false
		}
		if !((a+y+r.absD)/d <= bestV) {
			return false
		}
	}
	return true
}

// DetectEdge returns the index of the first sample where the signal crosses
// the threshold upward (previous sample below, current at or above), or −1.
// The NLOS sync receivers run this on the filtered photodiode stream to
// time-stamp the pilot's leading edge at their sampling resolution.
func DetectEdge(xs []float64, threshold float64) int {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] < threshold && xs[i] >= threshold {
			return i
		}
	}
	return -1
}

// MovingAverage smooths xs with a centred window of the given width
// (clamped at the edges). Width < 2 returns a copy.
func MovingAverage(xs []float64, width int) []float64 {
	out := make([]float64, len(xs))
	if width < 2 {
		copy(out, xs)
		return out
	}
	half := width / 2
	for i := range xs {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		sum := 0.0
		for j := lo; j <= hi; j++ {
			sum += xs[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}

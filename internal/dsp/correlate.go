package dsp

import "math"

// CrossCorrelate returns the normalised cross-correlation of the template
// against the signal at every lag in [0, len(signal)−len(template)]:
//
//	c[k] = Σ_i signal[k+i]·template[i] / (‖signal[k:k+n]‖·‖template‖)
//
// Values are in [−1, 1]; 1 means a perfect scaled match. Used by receivers
// to locate the frame preamble and by transmitters to detect the NLOS
// synchronisation pilot.
func CrossCorrelate(signal, template []float64) []float64 {
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
	dotLags(out, signal, template)
	// Rolling window energy, then normalisation in place.
	var wEnergy float64
	for i := 0; i < n; i++ {
		wEnergy += signal[i] * signal[i]
	}
	for k, dot := range out {
		if wEnergy > 0 {
			out[k] = dot / (math.Sqrt(wEnergy) * tNorm)
		} else {
			out[k] = 0
		}
		if k+n < len(signal) {
			wEnergy += signal[k+n]*signal[k+n] - signal[k]*signal[k]
			if wEnergy < 0 {
				wEnergy = 0 // guard against floating-point drift
			}
		}
	}
	return out
}

// dotLags writes the raw dot product Σ_i signal[k+i]·template[i] into
// out[k] for every lag k < len(out); signal must hold len(out)+len(template)−1
// samples. Lags are computed eight at a time with one accumulator each, so
// the loop is bound by multiply-add throughput rather than by the latency of
// a single add chain. Every accumulator still sums its products in template
// order, so each value is bit-identical to the one-lag-at-a-time loop.
func dotLags(out, signal, template []float64) {
	n := len(template)
	k := 0
	for ; k+8 <= len(out); k += 8 {
		s := signal[k : k+n+7]
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for i, t := range template {
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
		o := out[k : k+8 : k+8]
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
	for ; k < len(out); k++ {
		s := signal[k : k+n]
		dot := 0.0
		for i, t := range template {
			dot += s[i] * t
		}
		out[k] = dot
	}
}

// FindPeak returns the index and value of the maximum of xs, or (-1, 0) for
// an empty slice.
func FindPeak(xs []float64) (int, float64) {
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

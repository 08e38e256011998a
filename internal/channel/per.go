package channel

import (
	"math"

	"densevlc/internal/frame"
)

// Analytic link abstraction: closed-form bit-error and frame-error rates
// for the Manchester/OOK PHY, validated against the waveform simulation in
// tests. The simulator uses it as the fast PER path when the sample-level
// PHY is disabled.

// QFunc is the Gaussian tail probability Q(x) = P(N(0,1) > x).
func QFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// ChipSNR converts the per-receiver SINR of Eq. (12) — a power ratio at the
// noise bandwidth B — into the amplitude SNR of one integrated chip. The
// matched filter over a chip of duration Tc reduces the noise variance by
// the bandwidth-time product bt = B·Tc, so the chip's amplitude SNR is
// sqrt(SINR·bt). At the design point Tc = 1/B (critical signalling) bt = 1;
// the prototype's 100 Ksymbols/s OOK in a 1 MHz noise bandwidth has bt = 5.
func ChipSNR(sinr, bt float64) float64 {
	if sinr <= 0 || bt <= 0 {
		return 0
	}
	return math.Sqrt(sinr * bt)
}

// ManchesterBitBER returns the bit error rate of Manchester decoding at the
// given chip-amplitude SNR: the decision variable is the difference of two
// chips (distance 2A, noise σ√2), so BER = Q(√2 · A/σ).
func ManchesterBitBER(chipSNR float64) float64 {
	if chipSNR <= 0 {
		return 0.5
	}
	return QFunc(math.Sqrt2 * chipSNR)
}

// ByteErrorProb converts a bit error rate to the probability that a byte
// contains at least one bit error.
func ByteErrorProb(ber float64) float64 {
	if ber <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	return 1 - math.Pow(1-ber, 8)
}

// lgFact[k] = ln k! = Lgamma(k+1) for k ≤ 256, filled once at package init.
// The largest binomial FramePER asks for is one Reed–Solomon block of 216
// bytes, so the table covers every call on the hot path; lnFact falls back
// to math.Lgamma beyond it. A table entry is the very value Lgamma returns,
// so a table lookup and the call it replaces give the same bits.
var lgFact = func() (t [257]float64) {
	for k := range t {
		t[k], _ = math.Lgamma(float64(k + 1))
	}
	return t
}()

// lnFact returns ln k! = Lgamma(k+1); negative k (a caller's k < -1 in
// BinomialTail) takes the Lgamma path like any k past the table.
//
//lint:hotpath
func lnFact(k int) float64 {
	if uint(k) < uint(len(lgFact)) {
		return lgFact[k]
	}
	lg, _ := math.Lgamma(float64(k + 1))
	return lg
}

// BinomialTail returns P(X > k) for X ~ Binomial(n, p), computed in log
// space for stability at small p and large n.
//
//lint:hotpath
func BinomialTail(n int, p float64, k int) float64 {
	if n <= 0 || p <= 0 || k >= n {
		return 0
	}
	if p >= 1 {
		return 1
	}
	// Sum P(X = i) for i = k+1..n; stop once terms become negligible.
	lp := math.Log(p)
	lq := math.Log1p(-p)
	lgN := lnFact(n)
	total := 0.0
	for i := k + 1; i <= n; i++ {
		logTerm := lgN - lnFact(i) - lnFact(n-i) + float64(i)*lp + float64(n-i)*lq
		term := math.Exp(logTerm)
		total += term
		if term < 1e-18*total && i > k+8 {
			break
		}
	}
	if total > 1 {
		total = 1
	}
	return total
}

// FramePER returns the probability that a frame with the given payload
// length fails to decode at the given Eq. (12) SINR and bandwidth-time
// product: the MAC header must survive unprotected and every Reed–Solomon
// block must keep its byte errors within the correction budget.
func FramePER(sinr float64, payloadLen int, bt float64) float64 {
	ber := ManchesterBitBER(ChipSNR(sinr, bt))
	pByte := ByteErrorProb(ber)

	// Header: SFD through Protocol, no FEC.
	pOK := math.Pow(1-pByte, float64(frame.MACHeaderLen))

	// Payload blocks: up to 8 byte corrections per 216-byte block.
	remaining := payloadLen
	for remaining > 0 || payloadLen == 0 {
		blockData := remaining
		if blockData > 200 {
			blockData = 200
		}
		if payloadLen == 0 {
			blockData = 0
		}
		blockLen := blockData + 16
		pOK *= 1 - BinomialTail(blockLen, pByte, 8)
		remaining -= blockData
		if payloadLen == 0 {
			break
		}
	}
	per := 1 - pOK
	if per < 0 {
		per = 0
	}
	return per
}

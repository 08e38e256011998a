package channel

import (
	"math"
	"testing"

	"densevlc/internal/frame"
)

func TestQFuncKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.158655},
		{2, 0.022750},
		{3, 0.001350},
		{-1, 0.841345},
	}
	for _, c := range cases {
		if got := QFunc(c.x); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("Q(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestChipSNR(t *testing.T) {
	if got := ChipSNR(4, 1); math.Abs(got-2) > 1e-12 {
		t.Errorf("ChipSNR(4,1) = %v", got)
	}
	if got := ChipSNR(4, 5); math.Abs(got-math.Sqrt(20)) > 1e-12 {
		t.Errorf("ChipSNR(4,5) = %v", got)
	}
	if ChipSNR(0, 1) != 0 || ChipSNR(1, 0) != 0 || ChipSNR(-1, 1) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestManchesterBitBERShape(t *testing.T) {
	// Zero SNR → coin flip; monotone decreasing; tiny at high SNR.
	if ManchesterBitBER(0) != 0.5 {
		t.Error("zero SNR BER should be 0.5")
	}
	prev := 0.5
	for snr := 0.5; snr <= 8; snr += 0.5 {
		ber := ManchesterBitBER(snr)
		if ber >= prev {
			t.Fatalf("BER not decreasing at chip SNR %v", snr)
		}
		prev = ber
	}
	if ManchesterBitBER(6) > 1e-15 {
		t.Errorf("BER at chip SNR 6 = %v, should be negligible", ManchesterBitBER(6))
	}
}

func TestByteErrorProb(t *testing.T) {
	if ByteErrorProb(0) != 0 || ByteErrorProb(1) != 1 || ByteErrorProb(2) != 1 {
		t.Error("edge cases")
	}
	// Small-p approximation: ≈ 8p.
	if got := ByteErrorProb(1e-4); math.Abs(got-8e-4) > 1e-6 {
		t.Errorf("ByteErrorProb(1e-4) = %v", got)
	}
}

func TestBinomialTail(t *testing.T) {
	// P(X > 0) = 1 − (1−p)^n.
	n, p := 10, 0.1
	want := 1 - math.Pow(0.9, 10)
	if got := BinomialTail(n, p, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("tail(10,0.1,0) = %v, want %v", got, want)
	}
	// P(X > n) = 0; p = 1 → certain; degenerate inputs.
	if BinomialTail(10, 0.5, 10) != 0 || BinomialTail(10, 1.0, 3) != 1 ||
		BinomialTail(0, 0.5, 0) != 0 || BinomialTail(10, 0, 2) != 0 {
		t.Error("edge cases")
	}
	// Symmetric binomial: P(X > n/2) for even n just under 0.5.
	got := BinomialTail(10, 0.5, 5)
	if got <= 0.3 || got >= 0.5 {
		t.Errorf("tail(10,0.5,5) = %v", got)
	}
	// Stability at large n, small p: expectation-scale check.
	// n=216, p=0.001 → mean 0.216, P(X>8) astronomically small but finite ≥ 0.
	tiny := BinomialTail(216, 0.001, 8)
	if tiny < 0 || tiny > 1e-10 {
		t.Errorf("tail(216,0.001,8) = %v", tiny)
	}
}

func TestFramePERShape(t *testing.T) {
	// Monotone decreasing in SINR; 1 at zero SINR; ~0 at high SINR.
	if got := FramePER(0, 128, 5); got < 0.999 {
		t.Errorf("PER at zero SINR = %v", got)
	}
	prev := 1.0
	for sinr := 0.2; sinr <= 12; sinr *= 1.5 {
		per := FramePER(sinr, 128, 5)
		if per > prev+1e-12 {
			t.Fatalf("PER not decreasing at SINR %v", sinr)
		}
		prev = per
	}
	if per := FramePER(20, 128, 5); per > 1e-6 {
		t.Errorf("PER at SINR 20 = %v", per)
	}
	// Longer frames are more fragile in the transition region (at high
	// SINR both PERs vanish and the header term dominates equally).
	if FramePER(0.8, 1000, 5) <= FramePER(0.8, 32, 5) {
		t.Error("longer frames should lose more often")
	}
	// Zero payload still carries header + one parity block.
	if per := FramePER(0.5, 0, 5); per <= 0 || per > 1 {
		t.Errorf("zero-payload PER = %v", per)
	}
}

func TestFramePERBandwidthTimeProduct(t *testing.T) {
	// More integration time per chip (higher bt) improves the link.
	if FramePER(1.5, 128, 5) >= FramePER(1.5, 128, 1) {
		t.Error("higher bt should lower PER")
	}
}

// binomialTailRef is BinomialTail as it stood before the log-factorial
// table: three Lgamma calls per term, lgN recomputed inside the loop. The
// table-driven version must reproduce it bit for bit.
func binomialTailRef(n int, p float64, k int) float64 {
	if n <= 0 || p <= 0 || k >= n {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lp := math.Log(p)
	lq := math.Log1p(-p)
	total := 0.0
	for i := k + 1; i <= n; i++ {
		lgN, _ := math.Lgamma(float64(n + 1))
		lgI, _ := math.Lgamma(float64(i + 1))
		lgNI, _ := math.Lgamma(float64(n - i + 1))
		logTerm := lgN - lgI - lgNI + float64(i)*lp + float64(n-i)*lq
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

// framePERRef is FramePER over binomialTailRef.
func framePERRef(sinr float64, payloadLen int, bt float64) float64 {
	pByte := ByteErrorProb(ManchesterBitBER(ChipSNR(sinr, bt)))
	pOK := math.Pow(1-pByte, float64(frame.MACHeaderLen))
	remaining := payloadLen
	for remaining > 0 || payloadLen == 0 {
		blockData := remaining
		if blockData > 200 {
			blockData = 200
		}
		if payloadLen == 0 {
			blockData = 0
		}
		pOK *= 1 - binomialTailRef(blockData+16, pByte, 8)
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

// sameBits reports whether two float64s are bit-identical, treating every
// NaN as equal to every other NaN.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestBinomialTailBitExact pins the log-factorial table against the
// per-term Lgamma reference on both sides of the table edge (n ≤ 256 reads
// the table, larger n falls back to Lgamma).
func TestBinomialTailBitExact(t *testing.T) {
	ps := []float64{math.SmallestNonzeroFloat64, 1e-12, 1e-3, 0.1, 0.5, 1 - 0x1p-52}
	for n := 1; n <= 300; n++ {
		for k := 0; k < n; k++ {
			for _, p := range ps {
				got, want := BinomialTail(n, p, k), binomialTailRef(n, p, k)
				if !sameBits(got, want) {
					t.Fatalf("BinomialTail(%d, %g, %d) = %v (%#x), reference %v (%#x)",
						n, p, k, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestFramePERBitExact runs the whole analytic PER over a SINR ladder from
// a dark receiver to 60 dB at the payload sizes around the Reed–Solomon
// block edge.
func TestFramePERBitExact(t *testing.T) {
	sinrs := []float64{0}
	for s := 1e-3; s <= 1e6; s *= 1.25 {
		sinrs = append(sinrs, s)
	}
	sinrs = append(sinrs, 1e6)
	for _, payload := range []int{0, 64, 200, 201, 1500} {
		for _, bt := range []float64{1, 5} {
			for _, sinr := range sinrs {
				got, want := FramePER(sinr, payload, bt), framePERRef(sinr, payload, bt)
				if !sameBits(got, want) {
					t.Fatalf("FramePER(%g, %d, %g) = %v, reference %v", sinr, payload, bt, got, want)
				}
			}
		}
	}
}

func TestBinomialTailAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { _ = BinomialTail(80, 0.996, 8) }); a != 0 {
		t.Errorf("BinomialTail allocates %v times per call", a)
	}
}

func FuzzBinomialTail(f *testing.F) {
	f.Add(216, 0.001, 8)
	f.Add(80, 0.996, 8)
	f.Add(300, 0.5, 150)
	f.Add(10, 1e-300, -3)
	f.Add(257, math.Nextafter(1, 0), 0)
	f.Fuzz(func(t *testing.T, n int, p float64, k int) {
		// Bound the work: the loop runs at most n-k terms.
		if n > 4096 || k < -4096 {
			t.Skip()
		}
		got, want := BinomialTail(n, p, k), binomialTailRef(n, p, k)
		if !sameBits(got, want) {
			t.Fatalf("BinomialTail(%d, %v, %d) = %v, reference %v", n, p, k, got, want)
		}
	})
}

// BenchmarkFramePER scores a dark slot (SINR 0: every binomial term up to
// the block length is summed) and a well-lit one at the room-sync payload.
func BenchmarkFramePER(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		perSink = FramePER(0, 64, 5) + FramePER(3, 64, 5)
	}
}

// perSink keeps BenchmarkFramePER's calls from being optimised away.
var perSink float64

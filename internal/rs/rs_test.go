package rs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFFieldAxioms(t *testing.T) {
	// Multiplicative identity, commutativity, distributivity over a sample.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, 1) != a {
			t.Fatalf("a*1 != a for %d", a)
		}
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("commutativity fails for %d,%d", a, b)
		}
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity fails for %d,%d,%d", a, b, c)
		}
	}
}

func TestGFInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := gfInv(byte(a))
		if gfMul(byte(a), inv) != 1 {
			t.Fatalf("a * a⁻¹ != 1 for %d", a)
		}
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("division by zero should panic")
		}
	}()
	gfDiv(5, 0)
}

func TestGFPow(t *testing.T) {
	if gfPow(2, 0) != 1 || gfPow(0, 5) != 0 || gfPow(0, 0) != 1 {
		t.Error("edge cases wrong")
	}
	// a³ == a·a·a.
	for a := 1; a < 256; a++ {
		want := gfMul(byte(a), gfMul(byte(a), byte(a)))
		if gfPow(byte(a), 3) != want {
			t.Fatalf("pow fails for %d", a)
		}
	}
}

func TestGFExpPeriodic(t *testing.T) {
	if gfExp(0) != 1 || gfExp(255) != 1 || gfExp(-1) != gfExp(254) {
		t.Error("exp periodicity broken")
	}
}

func TestGeneratorRoots(t *testing.T) {
	// g(α^i) = 0 for i = 0..15 — the defining property.
	for i := 0; i < ParityBytes; i++ {
		if polyEval(generator, gfExp(i)) != 0 {
			t.Errorf("generator does not vanish at α^%d", i)
		}
	}
	if len(generator) != ParityBytes+1 {
		t.Errorf("generator degree = %d", len(generator)-1)
	}
}

func TestEncodeBlockRoundTripClean(t *testing.T) {
	data := []byte("hello, dense visible light world")
	enc, err := EncodeBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != len(data)+ParityBytes {
		t.Fatalf("encoded length %d", len(enc))
	}
	if !bytes.Equal(enc[:len(data)], data) {
		t.Fatal("code must be systematic")
	}
	dec, corrected, err := DecodeBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	if corrected != 0 {
		t.Errorf("clean block reported %d corrections", corrected)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestEncodeBlockTooLong(t *testing.T) {
	if _, err := EncodeBlock(make([]byte, MaxDataPerBlock+1)); err != ErrBlockTooLong {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeBlockCorrectsUpToT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 200)
	rng.Read(data)
	enc, err := EncodeBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	for nerr := 1; nerr <= MaxCorrectableErrors; nerr++ {
		corrupted := append([]byte(nil), enc...)
		// Corrupt nerr distinct positions (spanning data and parity).
		perm := rng.Perm(len(corrupted))[:nerr]
		for _, p := range perm {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		dec, corrected, err := DecodeBlock(corrupted)
		if err != nil {
			t.Fatalf("%d errors: %v", nerr, err)
		}
		if corrected != nerr {
			t.Errorf("%d errors: reported %d corrections", nerr, corrected)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("%d errors: data corrupted", nerr)
		}
	}
}

func TestDecodeBlockRejectsTooManyErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 100)
	rng.Read(data)
	enc, _ := EncodeBlock(data)

	failures := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		corrupted := append([]byte(nil), enc...)
		perm := rng.Perm(len(corrupted))[:MaxCorrectableErrors+2]
		for _, p := range perm {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		dec, _, err := DecodeBlock(corrupted)
		if err == nil && !bytes.Equal(dec, data) {
			// Miscorrection to a different codeword is possible in theory
			// but must never silently return wrong data *and* claim the
			// original. We count silent wrong answers as failures only if
			// they match no codeword — the final syndrome re-check should
			// make this impossible.
			failures++
		}
	}
	if failures > 0 {
		t.Errorf("%d/%d silent miscorrections slipped past the syndrome re-check", failures, trials)
	}
	// And at least most >t corruptions must be detected as uncorrectable.
	detected := 0
	for trial := 0; trial < trials; trial++ {
		corrupted := append([]byte(nil), enc...)
		perm := rng.Perm(len(corrupted))[:MaxCorrectableErrors+4]
		for _, p := range perm {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		if _, _, err := DecodeBlock(corrupted); err != nil {
			detected++
		}
	}
	if detected < trials*8/10 {
		t.Errorf("only %d/%d heavy corruptions detected", detected, trials)
	}
}

func TestDecodeBlockShortInput(t *testing.T) {
	if _, _, err := DecodeBlock(make([]byte, ParityBytes-1)); err == nil {
		t.Error("short block accepted")
	}
	if _, _, err := DecodeBlock(make([]byte, MaxDataPerBlock+ParityBytes+1)); err == nil {
		t.Error("overlong block accepted")
	}
}

func TestDecodeBlockDoesNotMutateInput(t *testing.T) {
	data := []byte("immutable")
	enc, _ := EncodeBlock(data)
	enc[0] ^= 0xff
	snapshot := append([]byte(nil), enc...)
	if _, _, err := DecodeBlock(enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, snapshot) {
		t.Error("DecodeBlock mutated its input")
	}
}

func TestMultiBlockEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{0, 1, 199, 200, 201, 400, 401, 1000} {
		data := make([]byte, size)
		rng.Read(data)
		enc := Encode(data)
		if len(enc) != size+Overhead(size) {
			t.Errorf("size %d: encoded %d bytes, want %d", size, len(enc), size+Overhead(size))
		}
		dec, corrected, err := Decode(enc, size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if corrected != 0 || !bytes.Equal(dec, data) {
			t.Fatalf("size %d: round trip failed", size)
		}
		// Now corrupt up to t bytes in each block.
		nblocks := (size + MaxDataPerBlock - 1) / MaxDataPerBlock
		if nblocks == 0 {
			nblocks = 1
		}
		off := 0
		for b := 0; b < nblocks; b++ {
			dlen := MaxDataPerBlock
			if rem := size - b*MaxDataPerBlock; rem < dlen {
				dlen = rem
			}
			enc[off+rng.Intn(dlen+ParityBytes)] ^= 0x55
			off += dlen + ParityBytes
		}
		dec, corrected, err = Decode(enc, size)
		if err != nil {
			t.Fatalf("size %d corrupted: %v", size, err)
		}
		if corrected == 0 || !bytes.Equal(dec, data) {
			t.Fatalf("size %d: correction failed (corrected=%d)", size, corrected)
		}
	}
}

func TestDecodeLengthMismatch(t *testing.T) {
	if _, _, err := Decode(make([]byte, 10), 100); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := Decode(nil, -1); err == nil {
		t.Error("negative length accepted")
	}
}

func TestOverhead(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 16}, {1, 16}, {200, 16}, {201, 32}, {400, 32}, {401, 48},
	}
	for _, c := range cases {
		if got := Overhead(c.n); got != c.want {
			t.Errorf("Overhead(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	// Property: any payload round-trips through Encode/Decode with any
	// single corrupted byte per block.
	rng := rand.New(rand.NewSource(9))
	f := func(data []byte) bool {
		if len(data) > 1000 {
			data = data[:1000]
		}
		enc := Encode(data)
		if len(enc) > 0 {
			enc[rng.Intn(len(enc))] ^= byte(1 + rng.Intn(255))
		}
		dec, _, err := Decode(enc, len(data))
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeBlock(b *testing.B) {
	data := make([]byte, 200)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBlock(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBlockClean(b *testing.B) {
	data := make([]byte, 200)
	rand.New(rand.NewSource(1)).Read(data)
	enc, _ := EncodeBlock(data)
	b.SetBytes(216)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBlock(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBlockEightErrors(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 200)
	rng.Read(data)
	enc, _ := EncodeBlock(data)
	corrupted := append([]byte(nil), enc...)
	for _, p := range rng.Perm(len(corrupted))[:8] {
		corrupted[p] ^= 0xA5
	}
	b.SetBytes(216)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBlock(corrupted); err != nil {
			b.Fatal(err)
		}
	}
}

// reportPayload is a report-sized payload: 1 800 bytes, nine full blocks.
func reportPayload() []byte {
	data := make([]byte, 1800)
	rand.New(rand.NewSource(1)).Read(data)
	return data
}

func BenchmarkEncodeReport(b *testing.B) {
	data := reportPayload()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Encode(data)
	}
}

func BenchmarkDecodeReportClean(b *testing.B) {
	data := reportPayload()
	enc := Encode(data)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(enc, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}

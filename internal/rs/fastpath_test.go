package rs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// refMul multiplies in GF(2⁸) bit by bit — shift-and-add with reduction by
// the primitive polynomial — independent of the log/antilog tables.
func refMul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= primPoly & 0xff
		}
		b >>= 1
	}
	return p
}

// refGenerator builds Π_{i<16} (x − α^i) with α = 2 using refMul only.
func refGenerator() []byte {
	g := []byte{1}
	var root byte = 1
	for i := 0; i < ParityBytes; i++ {
		next := make([]byte, len(g)+1)
		for j, c := range g {
			next[j] ^= c
			next[j+1] ^= refMul(c, root)
		}
		g = next
		root = refMul(root, 2)
	}
	return g
}

// refParity is schoolbook long division of data·x¹⁶ by g, one bit-serial
// multiply per term: the remainder is the systematic parity.
func refParity(g, data []byte) []byte {
	msg := make([]byte, len(data)+ParityBytes)
	copy(msg, data)
	for i := range data {
		if c := msg[i]; c != 0 {
			for j := 1; j < len(g); j++ {
				msg[i+j] ^= refMul(g[j], c)
			}
		}
	}
	return msg[len(data):]
}

// syndromesVanish is the decoder's textbook codeword test: r(α^i) = 0 for
// every i < 16.
func syndromesVanish(block []byte) bool {
	for i := 0; i < ParityBytes; i++ {
		if polyEval(block, gfExp(i)) != 0 {
			return false
		}
	}
	return true
}

// TestParityTableRows pins every table row f to f·g₁…g₁₆. An all-zero table
// — what an init that runs before the field tables are filled leaves —
// fails here, not only in a round trip.
func TestParityTableRows(t *testing.T) {
	for f := 0; f < fieldSize; f++ {
		for j := 1; j <= ParityBytes; j++ {
			var got byte
			if j <= ParityBytes/2 {
				got = byte(parityHi[f] >> (8 * (ParityBytes/2 - j)))
			} else {
				got = byte(parityLo[f] >> (8 * (ParityBytes - j)))
			}
			if want := gfMul(byte(f), generator[j]); got != want {
				t.Fatalf("row %d coefficient %d = %#02x, want %#02x", f, j, got, want)
			}
		}
	}
}

// TestEncoderMatchesLongDivision: the table encoder equals a bit-serial
// polynomial division on random blocks of every length 0–200.
func TestEncoderMatchesLongDivision(t *testing.T) {
	g := refGenerator()
	if !bytes.Equal(g, generator) {
		t.Fatalf("generator %x, bit-serial reference %x", generator, g)
	}
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= MaxDataPerBlock; n++ {
		for trial := 0; trial < 4; trial++ {
			data := make([]byte, n)
			rng.Read(data)
			enc, err := EncodeBlock(data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc[:n], data) {
				t.Fatalf("len %d: not systematic", n)
			}
			if want := refParity(g, data); !bytes.Equal(enc[n:], want) {
				t.Fatalf("len %d: parity %x, long division %x", n, enc[n:], want)
			}
		}
	}
}

// TestCleanMatchesSyndromes: the parity-compare clean check agrees with
// "all 16 syndromes vanish" on clean blocks, parity-only and data-only
// corruption, and corruption beyond t.
func TestCleanMatchesSyndromes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	corrupt := func(block []byte, lo, hi, count int) []byte {
		out := append([]byte(nil), block...)
		for _, p := range rng.Perm(hi - lo)[:count] {
			out[lo+p] ^= byte(1 + rng.Intn(255))
		}
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(MaxDataPerBlock + 1)
		data := make([]byte, n)
		rng.Read(data)
		enc, _ := EncodeBlock(data)
		cases := map[string][]byte{
			"clean":  enc,
			"parity": corrupt(enc, n, len(enc), 1+rng.Intn(ParityBytes)),
		}
		if n > 0 {
			cases["data"] = corrupt(enc, 0, n, 1+rng.Intn(min(n, MaxCorrectableErrors)))
		}
		if len(enc) >= MaxCorrectableErrors+1 {
			cases["heavy"] = corrupt(enc, 0, len(enc), MaxCorrectableErrors+1+rng.Intn(len(enc)-MaxCorrectableErrors))
		}
		for name, block := range cases {
			if got, want := clean(block), syndromesVanish(block); got != want {
				t.Fatalf("trial %d len %d %s: clean=%v, syndromes vanish=%v", trial, n, name, got, want)
			}
		}
		if !clean(enc) {
			t.Fatalf("trial %d: freshly encoded block not clean", trial)
		}
	}
}

// refDecode is the multi-block decoder gated the textbook way: blocks cut
// by data length, a block accepted clean when its syndromes vanish, and a
// corrected block accepted when its syndromes vanish afterwards.
func refDecode(encoded []byte, dataLen int) ([]byte, int, error) {
	var out []byte
	total, off := 0, 0
	for b := 0; b == 0 || b*MaxDataPerBlock < dataLen; b++ {
		dlen := min(MaxDataPerBlock, dataLen-b*MaxDataPerBlock)
		block := encoded[off : off+dlen+ParityBytes]
		off += len(block)
		if syndromesVanish(block) {
			out = append(out, block[:dlen]...)
			continue
		}
		msg := append([]byte(nil), block...)
		corrected, err := correct(msg)
		if err == nil && !syndromesVanish(msg) {
			err = ErrTooManyErrors
		}
		if err != nil {
			return nil, 0, fmt.Errorf("rs: block %d: %w", b, err)
		}
		out = append(out, msg[:dlen]...)
		total += corrected
	}
	return out, total, nil
}

// TestDecodeReportSizes compares Decode with refDecode on report-sized
// multi-block payloads, clean, with up to t errors per block, and with one
// block corrupted beyond t.
func TestDecodeReportSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, size := range []int{1800, 2052} {
		nblocks := Overhead(size) / ParityBytes
		for trial := 0; trial < 60; trial++ {
			data := make([]byte, size)
			rng.Read(data)
			enc := Encode(data)
			injected := 0
			heavy := trial%3 == 2
			bad := rng.Intn(nblocks)
			for b, off := 0, 0; b < nblocks; b++ {
				blen := min(MaxDataPerBlock, size-b*MaxDataPerBlock) + ParityBytes
				k := 0
				switch {
				case heavy && b == bad:
					k = MaxCorrectableErrors + 1 + rng.Intn(8)
				case trial%3 == 1:
					k = rng.Intn(MaxCorrectableErrors + 1)
				}
				for _, p := range rng.Perm(blen)[:k] {
					enc[off+p] ^= byte(1 + rng.Intn(255))
				}
				injected += k
				off += blen
			}
			got, gotN, gotErr := Decode(enc, size)
			want, wantN, wantErr := refDecode(enc, size)
			if !bytes.Equal(got, want) || gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("size %d trial %d: Decode = (%d bytes, %d, %v), reference = (%d bytes, %d, %v)",
					size, trial, len(got), gotN, gotErr, len(want), wantN, wantErr)
			}
			if !heavy && (gotErr != nil || gotN != injected || !bytes.Equal(got, data)) {
				t.Fatalf("size %d trial %d: %d injected errors, decoded %d corrections, err %v", size, trial, injected, gotN, gotErr)
			}
			if heavy && gotErr != nil && !errors.Is(gotErr, ErrTooManyErrors) {
				t.Fatalf("size %d trial %d: heavy corruption gave %v", size, trial, gotErr)
			}
		}
	}
}

// TestEncodeToAllocs pins block encoding into a caller-owned buffer at
// zero allocations.
func TestEncodeToAllocs(t *testing.T) {
	data := make([]byte, MaxDataPerBlock)
	rand.New(rand.NewSource(14)).Read(data)
	dst := make([]byte, len(data)+Overhead(len(data)))
	if n := testing.AllocsPerRun(100, func() { EncodeTo(dst, data) }); n != 0 {
		t.Errorf("EncodeTo: %v allocs/op, want 0", n)
	}
	if want, _ := EncodeBlock(data); !bytes.Equal(dst, want) {
		t.Error("EncodeTo differs from EncodeBlock")
	}
}

// TestDecodeCleanAllocs pins a clean multi-block decode at one allocation:
// the returned payload.
func TestDecodeCleanAllocs(t *testing.T) {
	data := make([]byte, 1800)
	rand.New(rand.NewSource(15)).Read(data)
	enc := Encode(data)
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := Decode(enc, len(data)); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("clean Decode: %v allocs/op, want 1", n)
	}
}

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

// TestParityTableRows pins every byte-table row f (row 7 of the sliced
// tables) to f·g₁…g₁₆. An all-zero table — what an init that runs before
// the field tables are filled leaves — fails here, not only in a round trip.
func TestParityTableRows(t *testing.T) {
	for f := 0; f < fieldSize; f++ {
		for j := 1; j <= ParityBytes; j++ {
			var got byte
			if j <= ParityBytes/2 {
				got = byte(parityHi[7][f] >> (8 * (ParityBytes/2 - j)))
			} else {
				got = byte(parityLo[7][f] >> (8 * (ParityBytes - j)))
			}
			if want := gfMul(byte(f), generator[j]); got != want {
				t.Fatalf("row %d coefficient %d = %#02x, want %#02x", f, j, got, want)
			}
		}
	}
}

// refByteTable is the byte-at-a-time reduction table built from the
// bit-serial generator: row f is f·g₁…g₁₆ packed big-endian.
func refByteTable() (hi, lo [fieldSize]uint64) {
	g := refGenerator()
	for f := 0; f < fieldSize; f++ {
		for j := 1; j <= ParityBytes/2; j++ {
			hi[f] = hi[f]<<8 | uint64(refMul(byte(f), g[j]))
			lo[f] = lo[f]<<8 | uint64(refMul(byte(f), g[j+ParityBytes/2]))
		}
	}
	return hi, lo
}

// refParityBytes is the byte-at-a-time encoder the sliced parity replaced:
// one data byte and one byte-table row per step.
func refParityBytes(data []byte) (hi, lo uint64) {
	for _, d := range data {
		f := d ^ byte(hi>>56)
		hi = (hi<<8 | lo>>56) ^ parityHi[7][f]
		lo = lo<<8 ^ parityLo[7][f]
	}
	return hi, lo
}

// TestSlicedTableRows: row 7 of the sliced tables is the byte table, and
// every row i is the byte-table row run through 7−i zero-byte steps of the
// byte recurrence.
func TestSlicedTableRows(t *testing.T) {
	tabHi, tabLo := refByteTable()
	if tabHi != parityHi[7] || tabLo != parityLo[7] {
		t.Fatal("row 7 differs from the byte table")
	}
	for f := 0; f < fieldSize; f++ {
		hi, lo := tabHi[f], tabLo[f]
		for i := 7; i >= 0; i-- {
			if parityHi[i][f] != hi || parityLo[i][f] != lo {
				t.Fatalf("row %d entry %d = %016x%016x, want %016x%016x", i, f, parityHi[i][f], parityLo[i][f], hi, lo)
			}
			top := byte(hi >> 56)
			hi = (hi<<8 | lo>>56) ^ tabHi[top]
			lo = lo<<8 ^ tabLo[top]
		}
	}
}

// TestParityMatchesByteLoop: the sliced parity equals the byte loop for
// every block length 0–216 at every start offset 0–7 within a backing
// array, so every tail length and load alignment is covered.
func TestParityMatchesByteLoop(t *testing.T) {
	buf := make([]byte, MaxDataPerBlock+ParityBytes+8)
	rand.New(rand.NewSource(16)).Read(buf)
	for off := 0; off < 8; off++ {
		for n := 0; n <= MaxDataPerBlock+ParityBytes; n++ {
			data := buf[off : off+n]
			hi, lo := parity(data)
			if wantHi, wantLo := refParityBytes(data); hi != wantHi || lo != wantLo {
				t.Fatalf("offset %d len %d: parity %016x%016x, byte loop %016x%016x", off, n, hi, lo, wantHi, wantLo)
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

var paritySink uint64

// BenchmarkParity times the remainder reduction alone on one full
// 200-byte block, the kernel under both EncodeTo and the clean check.
func BenchmarkParity(b *testing.B) {
	data := make([]byte, MaxDataPerBlock)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(MaxDataPerBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hi, lo := parity(data)
		paritySink ^= hi ^ lo
	}
}

package rs

import (
	"bytes"
	"testing"
)

// FuzzDecodeBlock throws arbitrary blocks at the decoder: it must never
// panic, and whatever it accepts must be a valid codeword — re-encoding the
// returned data must reproduce a block within t byte differences of the
// input (the corrections it claims to have made).
func FuzzDecodeBlock(f *testing.F) {
	enc, _ := EncodeBlock([]byte("seed data for the fuzzer"))
	f.Add(enc)
	f.Add(make([]byte, ParityBytes))
	f.Add(make([]byte, MaxDataPerBlock+ParityBytes))

	f.Fuzz(func(t *testing.T, block []byte) {
		data, corrected, err := DecodeBlock(block)
		if err != nil {
			return
		}
		if corrected < 0 || corrected > MaxCorrectableErrors {
			t.Fatalf("claimed %d corrections", corrected)
		}
		re, err := EncodeBlock(data)
		if err != nil {
			t.Fatalf("accepted data does not re-encode: %v", err)
		}
		if len(re) != len(block) {
			t.Fatalf("re-encode length %d vs %d", len(re), len(block))
		}
		diff := 0
		for i := range re {
			if re[i] != block[i] {
				diff++
			}
		}
		if diff != corrected {
			t.Fatalf("decoder claims %d corrections, codeword differs in %d bytes", corrected, diff)
		}
	})
}

// FuzzEncodeDecode checks the multi-block round trip for arbitrary payloads.
func FuzzEncodeDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("short"))
	f.Add(bytes.Repeat([]byte{0xAA}, 500))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		enc := Encode(data)
		dec, corrected, err := Decode(enc, len(data))
		if err != nil {
			t.Fatalf("clean decode failed: %v", err)
		}
		if corrected != 0 {
			t.Fatalf("clean decode corrected %d", corrected)
		}
		if !bytes.Equal(dec, data) {
			t.Fatal("round trip mismatch")
		}
	})
}

// FuzzParity checks the sliced parity against the byte-at-a-time loop on
// arbitrary data at an arbitrary start offset.
func FuzzParity(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("seven b"), uint8(1))
	f.Add(bytes.Repeat([]byte{0x5A}, MaxDataPerBlock), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		if len(data) > 4*MaxDataPerBlock {
			data = data[:4*MaxDataPerBlock]
		}
		data = data[min(int(off%8), len(data)):]
		hi, lo := parity(data)
		if wantHi, wantLo := refParityBytes(data); hi != wantHi || lo != wantLo {
			t.Fatalf("len %d: parity %016x%016x, byte loop %016x%016x", len(data), hi, lo, wantHi, wantLo)
		}
	})
}

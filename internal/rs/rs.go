package rs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// DenseVLC's frame format (Table 3) appends 16 parity bytes per payload
// block of up to 200 bytes.
const (
	// ParityBytes is the number of parity bytes per block (2t).
	ParityBytes = 16
	// MaxDataPerBlock is the largest data block one parity group covers.
	MaxDataPerBlock = 200
	// MaxCorrectableErrors is t, the byte-error correction capability.
	MaxCorrectableErrors = ParityBytes / 2
)

// Decode errors.
var (
	// ErrTooManyErrors reports an uncorrectable block.
	ErrTooManyErrors = errors.New("rs: too many errors to correct")
	// ErrBlockTooLong reports data longer than the shortened code allows.
	ErrBlockTooLong = fmt.Errorf("rs: data block exceeds %d bytes", MaxDataPerBlock)
)

// generator is the degree-16 generator polynomial
// g(x) = Π_{i=0}^{15} (x − α^i), coefficients high-order first. It is built
// in init so the GF log/antilog tables (filled by gf256.go's init) are
// ready; a package-level initializer expression would run before them.
var generator []byte

// parityHi and parityLo are the encoder's slicing-by-8 reduction tables,
// the big-endian high and low halves of a 16-byte remainder. Row 7 is the
// byte table: entry f holds f·g₁…g₁₆, the generator's non-leading
// coefficients scaled by f, which is f·x¹⁶ mod g — the remainder one data
// byte f contributes. Row i is row 7 pushed through 7−i further zero-byte
// steps, f·x^(23−i) mod g: what data byte i of an 8-byte group contributes
// once the other 7−i bytes have shifted in after it. They are filled in the
// same init as generator, after it, for the same reason: a table built in
// an init that runs before gf256.go's comes out all zero.
var parityHi, parityLo [8][fieldSize]uint64

func init() {
	generator = buildGenerator(ParityBytes)
	for f := 1; f < fieldSize; f++ {
		var hi, lo uint64
		for j := 1; j <= ParityBytes/2; j++ {
			hi = hi<<8 | uint64(gfMul(byte(f), generator[j]))
			lo = lo<<8 | uint64(gfMul(byte(f), generator[j+ParityBytes/2]))
		}
		parityHi[7][f], parityLo[7][f] = hi, lo
	}
	for i := 6; i >= 0; i-- {
		for f := range parityHi[i] {
			// One zero data byte: the row above times x⁸, reduced mod g.
			hi, lo := parityHi[i+1][f], parityLo[i+1][f]
			top := byte(hi >> 56)
			parityHi[i][f] = (hi<<8 | lo>>56) ^ parityHi[7][top]
			parityLo[i][f] = lo<<8 ^ parityLo[7][top]
		}
	}
}

func buildGenerator(nparity int) []byte {
	g := []byte{1}
	for i := 0; i < nparity; i++ {
		// Multiply g by (x − α^i) == (x + α^i) in GF(2⁸).
		root := gfExp(i)
		next := make([]byte, len(g)+1)
		for j, c := range g {
			next[j] ^= c // x * c
			next[j+1] ^= gfMul(c, root)
		}
		g = next
	}
	return g
}

// parity returns the remainder of data·x¹⁶ divided by g(x) — the 16 parity
// bytes of systematic encoding — as its big-endian high and low halves.
// The reduction is linear, so 8 data bytes fold in per step: XORed into
// the remainder's high half, they are the coefficients that leave it when
// it shifts up 8 places, and each comes back in through its own table row.
// The len%8 tail reduces one byte per step through the byte table, row 7.
func parity(data []byte) (hi, lo uint64) {
	for len(data) >= 8 {
		x := hi ^ binary.BigEndian.Uint64(data)
		hi = lo ^ parityHi[0][x>>56] ^ parityHi[1][byte(x>>48)] ^
			parityHi[2][byte(x>>40)] ^ parityHi[3][byte(x>>32)] ^
			parityHi[4][byte(x>>24)] ^ parityHi[5][byte(x>>16)] ^
			parityHi[6][byte(x>>8)] ^ parityHi[7][byte(x)]
		lo = parityLo[0][x>>56] ^ parityLo[1][byte(x>>48)] ^
			parityLo[2][byte(x>>40)] ^ parityLo[3][byte(x>>32)] ^
			parityLo[4][byte(x>>24)] ^ parityLo[5][byte(x>>16)] ^
			parityLo[6][byte(x>>8)] ^ parityLo[7][byte(x)]
		data = data[8:]
	}
	for _, d := range data {
		f := d ^ byte(hi>>56)
		hi = (hi<<8 | lo>>56) ^ parityHi[7][f]
		lo = lo<<8 ^ parityLo[7][f]
	}
	return hi, lo
}

// clean reports whether block (data‖16 parity bytes) is a codeword. For a
// systematic code this is exactly "all 16 syndromes vanish": the received
// word r = d′·x¹⁶ + p′ has every α^i (i < 16) as a root iff g divides r,
// iff p′ equals d′·x¹⁶ mod g, the parity the encoder would compute.
func clean(block []byte) bool {
	n := len(block) - ParityBytes
	hi, lo := parity(block[:n])
	return hi == binary.BigEndian.Uint64(block[n:]) &&
		lo == binary.BigEndian.Uint64(block[n+ParityBytes/2:])
}

// EncodeBlock appends the 16 parity bytes for one data block of at most 200
// bytes, returning data‖parity. The input is not modified.
func EncodeBlock(data []byte) ([]byte, error) {
	if len(data) > MaxDataPerBlock {
		return nil, ErrBlockTooLong
	}
	out := make([]byte, len(data)+ParityBytes)
	encodeBlock(out, data)
	return out, nil
}

// encodeBlock writes data‖parity into dst[:len(data)+ParityBytes].
func encodeBlock(dst, data []byte) {
	n := copy(dst, data)
	hi, lo := parity(data)
	binary.BigEndian.PutUint64(dst[n:], hi)
	binary.BigEndian.PutUint64(dst[n+ParityBytes/2:], lo)
}

// DecodeBlock corrects up to 8 byte errors in a block produced by
// EncodeBlock (data‖16 parity bytes) and returns the data portion along
// with the number of byte errors corrected. The input is not modified.
func DecodeBlock(block []byte) (data []byte, corrected int, err error) {
	if len(block) < ParityBytes {
		return nil, 0, fmt.Errorf("rs: block of %d bytes shorter than parity", len(block))
	}
	if len(block) > MaxDataPerBlock+ParityBytes {
		return nil, 0, ErrBlockTooLong
	}
	return appendBlock(make([]byte, 0, len(block)), block)
}

// appendBlock appends the corrected data portion of block to out. A clean
// block's data is appended as received. A block that fails the parity check
// is appended whole, parity included, and corrected in place there.
func appendBlock(out, block []byte) ([]byte, int, error) {
	n := len(block) - ParityBytes
	if clean(block) {
		return append(out, block[:n]...), 0, nil
	}
	start := len(out)
	out = append(out, block...)
	corrected, err := correct(out[start:])
	if err != nil {
		return nil, 0, err
	}
	return out[:start+n], corrected, nil
}

// correct repairs msg (data‖parity, not a codeword) in place by syndrome
// computation, Berlekamp–Massey, Chien search and Forney's algorithm, and
// returns the number of corrected byte errors.
func correct(msg []byte) (int, error) {
	// Syndromes S_i = r(α^i), i = 0..15.
	syndromes := make([]byte, ParityBytes)
	for i := range syndromes {
		syndromes[i] = polyEval(msg, gfExp(i))
	}

	// Berlekamp–Massey: find the error-locator polynomial Λ (low-order
	// first, Λ[0] = 1).
	lambda := berlekampMassey(syndromes)
	numErrors := len(lambda) - 1
	if numErrors > MaxCorrectableErrors {
		return 0, ErrTooManyErrors
	}

	// Chien search over the shortened code's positions.
	positions := chienSearch(lambda, len(msg))
	if len(positions) != numErrors {
		// Locator degree disagrees with its root count: uncorrectable.
		return 0, ErrTooManyErrors
	}

	// Forney: error magnitudes from the evaluator polynomial
	// Ω(x) = S(x)·Λ(x) mod x^(2t).
	omega := make([]byte, ParityBytes)
	for i := 0; i < ParityBytes; i++ {
		var acc byte
		for j := 0; j <= i && j < len(lambda); j++ {
			acc ^= gfMul(lambda[j], syndromes[i-j])
		}
		omega[i] = acc
	}
	// Λ'(x): formal derivative (odd-power terms shifted down).
	lambdaPrime := make([]byte, 0, len(lambda)/2+1)
	for i := 1; i < len(lambda); i += 2 {
		lambdaPrime = append(lambdaPrime, lambda[i])
	}

	for _, pos := range positions {
		// Error location value X = α^(n-1-pos); its inverse is the root.
		x := gfExp(len(msg) - 1 - pos)
		xInv := gfInv(x)
		num := polyEvalLow(omega, xInv)
		// Λ'(X⁻¹) evaluated over even powers: Λ' has only the shifted odd
		// coefficients, evaluated at (X⁻¹)².
		den := polyEvalLow(lambdaPrime, gfMul(xInv, xInv))
		if den == 0 {
			return 0, ErrTooManyErrors
		}
		// Forney with first consecutive root b = 0 (syndromes S_i = r(α^i),
		// i ≥ 0): e = X^(1-b) · Ω(X⁻¹)/Λ'(X⁻¹) = X · Ω(X⁻¹)/Λ'(X⁻¹).
		magnitude := gfMul(x, gfDiv(num, den))
		msg[pos] ^= magnitude
	}

	// Verify: the corrected word must be a codeword (all syndromes vanish).
	if !clean(msg) {
		return 0, ErrTooManyErrors
	}
	return numErrors, nil
}

// berlekampMassey returns the error-locator polynomial (low-order first)
// for the given syndromes.
func berlekampMassey(syndromes []byte) []byte {
	lambda := []byte{1}
	prev := []byte{1}
	var l, m int = 0, 1
	var b byte = 1

	for n := 0; n < len(syndromes); n++ {
		// Discrepancy.
		var delta byte = syndromes[n]
		for i := 1; i <= l && i < len(lambda); i++ {
			delta ^= gfMul(lambda[i], syndromes[n-i])
		}
		if delta == 0 {
			m++
			continue
		}
		if 2*l <= n {
			// Shift register too short: lengthen it.
			tmp := append([]byte(nil), lambda...)
			coef := gfDiv(delta, b)
			lambda = polyAddShifted(lambda, prev, coef, m)
			prev = tmp
			l = n + 1 - l
			b = delta
			m = 1
		} else {
			coef := gfDiv(delta, b)
			lambda = polyAddShifted(lambda, prev, coef, m)
			m++
		}
	}
	// Trim trailing zeros so degree == len-1.
	for len(lambda) > 1 && lambda[len(lambda)-1] == 0 {
		lambda = lambda[:len(lambda)-1]
	}
	return lambda
}

// polyAddShifted returns a(x) + coef·x^shift·b(x), low-order first.
func polyAddShifted(a, b []byte, coef byte, shift int) []byte {
	size := len(a)
	if len(b)+shift > size {
		size = len(b) + shift
	}
	out := make([]byte, size)
	copy(out, a)
	for i, c := range b {
		out[i+shift] ^= gfMul(c, coef)
	}
	return out
}

// chienSearch returns the message positions (0-based from the block start)
// whose locations are roots of the error locator.
func chienSearch(lambda []byte, msgLen int) []int {
	var out []int
	for pos := 0; pos < msgLen; pos++ {
		xInv := gfExp(-(msgLen - 1 - pos))
		if polyEvalLow(lambda, xInv) == 0 {
			out = append(out, pos)
		}
	}
	return out
}

// Encode splits data into blocks of at most MaxDataPerBlock bytes and
// appends 16 parity bytes per block, implementing Table 3's
// "⌈x/200⌉ × 16 B" Reed–Solomon field. The block structure is implicit in
// the length, so Decode can invert it knowing only the payload length.
func Encode(data []byte) []byte {
	out := make([]byte, len(data)+Overhead(len(data)))
	EncodeTo(out, data)
	return out
}

// EncodeTo writes Encode(data) into dst, which must hold at least
// len(data)+Overhead(len(data)) bytes, and returns the number of bytes
// written. It does not allocate, so a caller that reserves the region in
// its own frame buffer encodes in place.
//
//lint:hotpath
func EncodeTo(dst, data []byte) int {
	off := 0
	for {
		n := len(data)
		if n > MaxDataPerBlock {
			n = MaxDataPerBlock
		}
		encodeBlock(dst[off:off+n+ParityBytes], data[:n])
		off += n + ParityBytes
		data = data[n:]
		if len(data) == 0 {
			// A zero-length payload still carries one parity group.
			return off
		}
	}
}

// Decode reverses Encode given the original data length, correcting up to
// 8 byte errors per 216-byte block. It returns the recovered payload and
// the total number of corrected byte errors.
func Decode(encoded []byte, dataLen int) ([]byte, int, error) {
	if dataLen < 0 {
		return nil, 0, fmt.Errorf("rs: negative data length %d", dataLen)
	}
	if want := dataLen + Overhead(dataLen); len(encoded) != want {
		return nil, 0, fmt.Errorf("rs: encoded length %d does not match data length %d (want %d)", len(encoded), dataLen, want)
	}
	out := make([]byte, 0, dataLen)
	total := 0
	for b := 0; len(encoded) > 0; b++ {
		n := len(encoded)
		if n > MaxDataPerBlock+ParityBytes {
			n = MaxDataPerBlock + ParityBytes
		}
		var corrected int
		var err error
		out, corrected, err = appendBlock(out, encoded[:n])
		if err != nil {
			return nil, 0, fmt.Errorf("rs: block %d: %w", b, err)
		}
		total += corrected
		encoded = encoded[n:]
	}
	return out, total, nil
}

// Overhead returns the number of parity bytes Encode adds for a payload of
// the given length: ⌈len/200⌉ · 16 (minimum one block).
func Overhead(dataLen int) int {
	nblocks := (dataLen + MaxDataPerBlock - 1) / MaxDataPerBlock
	if nblocks == 0 {
		nblocks = 1
	}
	return nblocks * ParityBytes
}

package stats

import "math/rand"

// NewRand returns a deterministic random source for the given seed.
// All stochastic components in DenseVLC accept a *rand.Rand so experiments
// regenerate identically run-to-run; this constructor centralises the choice
// of generator.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SplitRand derives an independent stream from a parent source. Entities in
// the simulator (each TX clock, each RX noise process) get their own stream
// so that adding an entity does not perturb the random numbers other
// entities observe.
func SplitRand(parent *rand.Rand) *rand.Rand {
	return rand.New(rand.NewSource(parent.Int63()))
}

// GaussianPair draws a pair of independent standard normal variates.
// Sub-packages that superimpose noise sample-by-sample use this to halve the
// number of source calls.
func GaussianPair(rng *rand.Rand) (float64, float64) {
	return rng.NormFloat64(), rng.NormFloat64()
}

// DeriveSeed mixes a parent seed with a key into the seed of a keyed stream
// (the SplitMix64 finaliser over seed and key). Where SplitRand hands out
// streams in the order they are split, DeriveSeed ties a stream to an
// identity — a frame's sequence number — so concurrent consumers get the
// same numbers whichever of them runs first.
func DeriveSeed(seed int64, key uint64) int64 {
	z := uint64(seed) + key*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}

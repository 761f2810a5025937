package stats

import "math/rand"

// NewRand returns a deterministic *rand.Rand for the given seed. Every
// stochastic component in this repository takes an explicit seed (or *rand.Rand)
// so that experiments are reproducible bit-for-bit.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SplitSeed derives a sub-seed for stream i from a master seed, using the
// SplitMix64 finalizer so nearby (seed, i) pairs yield decorrelated streams.
func SplitSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & 0x7fffffffffffffff)
}

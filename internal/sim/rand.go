package sim

import "math/rand"

// The generator behind NewRand is math/rand's: an additive lagged
// Fibonacci generator over a 607-word register, x[n] = x[n-607] +
// x[n-273] mod 2^64, seeded from a Lehmer sequence. Go 1's compatibility
// promise freezes its output per seed, and every seed this repository has
// recorded replays through it, so the sequence is reproduced here bit for
// bit. Only the seeding differs. math/rand runs the Lehmer sequence
// x[k] = 48271^k·x0 mod (2^31−1) for 1,842 sequential steps and fills all
// 607 words (4.9 KB) up front. Word i of the seeded register is
//
//	x[3i+21]<<40 ^ x[3i+22]<<20 ^ x[3i+23] ^ rngCooked[i]
//
// so with the powers 48271^k computed once per process any word costs
// three multiplications, and a word is computed when the generator first
// touches it, a chunk at a time. A stream that draws a few values (one
// node's waypoint script in a short trial) seeds two chunks and never
// allocates the rest.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// lehmerA is the Lehmer multiplier of math/rand's seeding sequence.
	lehmerA = 48271
	// chunkLen words are seeded together on first touch.
	chunkLen = 16
	nChunks  = (rngLen + chunkLen - 1) / chunkLen
)

// lehmerPow[k] is lehmerA^k mod int32max for every k the seeding uses.
var lehmerPow = func() (p [3*(rngLen-1) + 24]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * lehmerA % int32max
	}
	return p
}()

// NewRand returns a generator whose every draw equals that of
// rand.New(rand.NewSource(seed)), including after a Seed, but which seeds
// its state lazily. It is the one stream constructor for simulation code.
func NewRand(seed int64) *rand.Rand {
	s := &lazySource{}
	s.Seed(seed)
	return rand.New(s)
}

// lazySource is math/rand's rngSource with a register that is seeded on
// first touch.
type lazySource struct {
	tap, feed int
	x0        uint64 // the normalised seed: the Lehmer sequence's x[0]
	ready     uint64 // bit c set: chunk c holds its seeded (or later) words
	chunks    [nChunks]*[chunkLen]int64
}

// Seed implements rand.Source: it resets the generator to seed's state
// exactly as math/rand's rngSource.Seed does. Chunks already allocated
// are kept and re-seeded when next touched.
func (s *lazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.ready = 0
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	tc, fc := uint(s.tap)/chunkLen, uint(s.feed)/chunkLen
	if s.ready>>tc&(s.ready>>fc)&1 == 0 {
		s.seedChunk(tc)
		s.seedChunk(fc)
	}
	f := &s.chunks[fc][uint(s.feed)%chunkLen]
	x := *f + s.chunks[tc][uint(s.tap)%chunkLen]
	*f = x
	return uint64(x)
}

// seedChunk writes chunk c's words as math/rand's Seed would have, unless
// the chunk was touched since Seed.
func (s *lazySource) seedChunk(c uint) {
	if s.ready&(1<<c) != 0 {
		return
	}
	if s.chunks[c] == nil {
		s.chunks[c] = new([chunkLen]int64)
	}
	ch := s.chunks[c]
	for j := range ch {
		i := int(c)*chunkLen + j
		if i == rngLen {
			break
		}
		k := 3*i + 21
		u := int64(lehmerPow[k]*s.x0%int32max) << 40
		u ^= int64(lehmerPow[k+1]*s.x0%int32max) << 20
		u ^= int64(lehmerPow[k+2] * s.x0 % int32max)
		ch[j] = u ^ rngCooked[i]
	}
	s.ready |= 1 << c
}

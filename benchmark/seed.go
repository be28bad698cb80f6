package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
)

// rng is splitmix64: small, seedable and — unlike math/rand's default
// algorithms — guaranteed to produce the same stream on every Go release,
// which is what "same seed gives the same inputs" needs. Each input table
// draws from its own stream (seed mixed with the table's name), so adding
// a table never shifts the values of another.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	r := &rng{s: seed ^ h.Sum64()}
	r.next() // decorrelate neighbouring seeds
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1 (Fisher-Yates).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.shuffle(p)
	return p
}

func (r *rng) shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// mix fills a table of n entries with the given values in equal shares
// (the remainder takes the first values) and shuffles it. Every seed
// therefore carries the same multiset — the same total bytes and think
// time — in a different order, so seeds vary the interleaving and not the
// amount of work.
func (r *rng) mix(n int, values []int) []int {
	t := make([]int, n)
	for i := range t {
		t[i] = values[i%len(values)]
	}
	r.shuffle(t)
	return t
}

func (r *rng) bytes(n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], r.next())
		copy(b[i:], w[:])
	}
	return b
}

// words32 serialises a table as little-endian 32-bit words, the form in
// which every table is written into guest memory.
func words32(t []int) []byte {
	b := make([]byte, 4*len(t))
	for i, v := range t {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

func progBytes(words []uint32) []byte {
	b := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(b[4*i:], w)
	}
	return b
}

// digest is the hex SHA-256 of the concatenated parts, length-prefixed so
// that moving a byte between parts changes the result.
func digest(parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

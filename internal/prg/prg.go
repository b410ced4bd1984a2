// Package prg implements the pseudo-random generator used for share
// compression (Appendix I, optimization 1): AES-128 in counter mode keyed by
// a 16-byte seed. A client can replace s-1 of its s additive shares by PRG
// seeds, shrinking an L-element upload from s·L field elements to
// L + O(1) — the 5x bandwidth saving the paper reports for five servers.
//
// The output is the AES-CTR keystream under a zero IV. Seeds travel on the
// wire, so this byte stream is part of the protocol: client and servers
// must expand a seed identically, and reads of any sizes concatenate to the
// same bytes. A Read of n bytes is one XORKeyStream call over n bytes, so
// bulk consumers read the keystream in large chunks sized to their demand
// rather than one element at a time.
package prg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"io"
)

// SeedSize is the byte length of a PRG seed (an AES-128 key).
const SeedSize = 16

// Seed keys a PRG. Two PRGs built from equal seeds produce identical output.
type Seed [SeedSize]byte

// NewSeed draws a fresh random seed from crypto/rand.
func NewSeed() (Seed, error) {
	var s Seed
	_, err := io.ReadFull(rand.Reader, s[:])
	return s, err
}

// PRG is a deterministic stream of pseudo-random bytes. It implements
// io.Reader and never returns an error from Read.
type PRG struct {
	stream cipher.Stream
}

// New constructs a PRG from seed.
func New(seed Seed) *PRG {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		// aes.NewCipher only fails on invalid key sizes; SeedSize is valid.
		panic("prg: " + err.Error())
	}
	return &PRG{stream: cipher.NewCTR(block, zeroIV[:])}
}

// zeroIV is the counter's initial value. NewCTR copies it, so it is only
// ever read.
var zeroIV [aes.BlockSize]byte

// Read fills p with pseudo-random bytes. It always returns len(p), nil.
func (g *PRG) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	g.stream.XORKeyStream(p, p)
	return len(p), nil
}

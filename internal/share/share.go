// Package share implements the s-out-of-s additive secret-sharing scheme of
// Section 3: a vector x ∈ F^L is split into s random vectors that sum to x.
// Any s-1 shares are independent of x, which is the entire privacy argument
// of the basic Prio scheme.
//
// The package also provides the PRG-compressed variant of Appendix I
// (optimization 1), where the first s-1 shares are 16-byte PRG seeds, and an
// XOR-sharing variant for the F_2^λ boolean encodings of Section 5.2.
//
// A seed is all a follower receives of its share, so Expand is wire
// format: for every field it must yield, bit for bit, the elements that
// one f.SampleElem per draw over the prg stream yields. Over F64, the field
// of every hot path, expansion reads the keystream in chunks of up to 4 KiB,
// sized to the elements still missing, and decodes 8-byte words in place,
// with no per-element read or allocation; the golden digests in
// golden_test.go and FuzzExpandMatchesReference hold it to the per-element
// definition.
package share

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"io"

	"prio/internal/field"
	"prio/internal/prg"
)

// ErrBadShareCount is returned when a split or reconstruction is requested
// with fewer than one share.
var ErrBadShareCount = errors.New("share: need at least 1 share")

// Split divides x into s additive shares using entropy from rnd: the first
// s-1 shares are uniformly random and the last is x minus their sum. The
// input is not modified.
func Split[Fd field.Field[E], E any](f Fd, rnd io.Reader, x []E, s int) ([][]E, error) {
	if s < 1 {
		return nil, ErrBadShareCount
	}
	shares := make([][]E, s)
	last := append([]E(nil), x...)
	for i := 0; i < s-1; i++ {
		sh, err := field.SampleVec(f, rnd, len(x))
		if err != nil {
			return nil, err
		}
		shares[i] = sh
		field.SubVec(f, last, sh)
	}
	shares[s-1] = last
	return shares, nil
}

// Reconstruct sums the given shares, recovering the secret vector. All shares
// must have equal length.
func Reconstruct[Fd field.Field[E], E any](f Fd, shares ...[]E) []E {
	if len(shares) == 0 {
		return nil
	}
	out := append([]E(nil), shares[0]...)
	for _, sh := range shares[1:] {
		field.AddVec(f, out, sh)
	}
	return out
}

// Expand deterministically derives an n-element share vector from a PRG seed.
// It is how servers holding a seeded share materialize their field elements.
func Expand[Fd field.Field[E], E any](f Fd, seed prg.Seed, n int) []E {
	out := make([]E, n)
	ExpandInto(f, seed, out)
	return out
}

// ExpandInto overwrites dst with the first len(dst) elements expanded from
// seed. Each element is rejection-sampled from the PRG stream in order:
// F64 draws 8-byte little-endian words, decoded in place from bulk reads
// of the keystream; every other field draws through its SampleElem. The
// result is, bit for bit, what calling f.SampleElem on the stream once per
// element yields — seeds are wire format.
func ExpandInto[Fd field.Field[E], E any](f Fd, seed prg.Seed, dst []E) {
	sample(f, seed, dst, false)
}

// ExpandNonzeroInto is ExpandInto with zero rejected like an out-of-range
// draw: a zero is skipped and the next draw in the stream fills its slot.
func ExpandNonzeroInto[Fd field.Field[E], E any](f Fd, seed prg.Seed, dst []E) {
	sample(f, seed, dst, true)
}

// sample fills dst from seed's stream in order, rejecting zero too when
// nonzero is set.
func sample[Fd field.Field[E], E any](f Fd, seed prg.Seed, dst []E, nonzero bool) {
	src := prg.New(seed)
	if _, ok := any(f).(field.F64); ok {
		lo := uint64(0)
		if nonzero {
			lo = 1
		}
		sampleF64(src, any(dst).([]uint64), lo)
		return
	}
	for i := range dst {
		for {
			e, err := f.SampleElem(src)
			if err != nil {
				// The PRG never fails.
				panic("share: " + err.Error())
			}
			if !nonzero || !f.IsZero(e) {
				dst[i] = e
				break
			}
		}
	}
}

// maxChunk is the most keystream sampleF64 reads at once: 4 KiB, 512 draws.
const maxChunk = 4096

// sampleF64 fills dst with the 8-byte little-endian words of src that lie
// in [lo, p), skipping the rest. Each read asks for exactly the words the
// unfilled elements need, capped at maxChunk bytes, so a short vector
// reads only its own draws and src is left where one F64.SampleElem per
// draw would leave it.
func sampleF64(src io.Reader, dst []uint64, lo uint64) {
	buf := make([]byte, min(8*len(dst), maxChunk))
	for i := 0; i < len(dst); {
		b := buf[:min(8*(len(dst)-i), len(buf))]
		if _, err := io.ReadFull(src, b); err != nil {
			// The PRG never fails.
			panic("share: " + err.Error())
		}
		for ; len(b) > 0; b = b[8:] {
			if v := binary.LittleEndian.Uint64(b); v-lo < field.ModulusF64-lo {
				dst[i] = v
				i++
			}
		}
	}
}

// SplitSeeded divides x into s shares where the first s-1 are PRG seeds
// (Appendix I, optimization 1). Server i < s-1 expands its seed with Expand;
// server s-1 receives the explicit vector.
func SplitSeeded[Fd field.Field[E], E any](f Fd, x []E, s int) ([]prg.Seed, []E, error) {
	if s < 1 {
		return nil, nil, ErrBadShareCount
	}
	seeds := make([]prg.Seed, s-1)
	last := append([]E(nil), x...)
	scratch := make([]E, len(x))
	for i := range seeds {
		seed, err := prg.NewSeed()
		if err != nil {
			return nil, nil, err
		}
		seeds[i] = seed
		ExpandInto(f, seed, scratch)
		field.SubVec(f, last, scratch)
	}
	return seeds, last, nil
}

// XorSplit divides a packed bitset (len(words)*64 bits) into s XOR shares.
// It is used by the boolean OR/AND encodings, which aggregate in F_2^λ.
func XorSplit(words []uint64, s int) ([][]uint64, error) {
	if s < 1 {
		return nil, ErrBadShareCount
	}
	shares := make([][]uint64, s)
	last := append([]uint64(nil), words...)
	buf := make([]byte, 8*len(words))
	for i := 0; i < s-1; i++ {
		if _, err := io.ReadFull(rand.Reader, buf); err != nil {
			return nil, err
		}
		sh := make([]uint64, len(words))
		for j := range sh {
			sh[j] = binary.LittleEndian.Uint64(buf[8*j:])
			last[j] ^= sh[j]
		}
		shares[i] = sh
	}
	shares[s-1] = last
	return shares, nil
}

// XorReconstruct XORs the given shares together, recovering the bitset.
func XorReconstruct(shares ...[]uint64) []uint64 {
	if len(shares) == 0 {
		return nil
	}
	out := append([]uint64(nil), shares[0]...)
	for _, sh := range shares[1:] {
		for j := range out {
			out[j] ^= sh[j]
		}
	}
	return out
}

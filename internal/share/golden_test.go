package share

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"prio/internal/field"
	"prio/internal/prg"
)

// goldenSeed is the seed behind every pinned digest below: 00 01 … 0f.
var goldenSeed = prg.Seed{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// digest is the SHA-256 of v's canonical element encodings, concatenated.
func digest[Fd field.Field[E], E any](f Fd, v []E) string {
	var b []byte
	for _, e := range v {
		b = f.AppendElem(b, e)
	}
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:])
}

// TestExpandGolden pins Expand's output for every field at lengths around
// the 512-element (4 KiB of F64) keystream chunk. A seed is all a follower
// receives of its share, so client and server must expand it identically:
// these digests are wire format and must never change.
func TestExpandGolden(t *testing.T) {
	const empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	want := map[string]map[int]string{
		"F64": {
			1:    "9dbfc299dac1608d483c5be28a7897643cc0b73e99420a40e192d55509bdeab0",
			511:  "5e7e1e36a1e37280044e62756a9db0e5eed4218a8dfc21a924d3576564d32871",
			512:  "8a0e8a514e748aba01b579326622143542ff39e9928ffb5024805da3b3b7a897",
			513:  "b6fda4d0212ae762b0c24b27bffb2bb304bacea125ef86526885f6e5b08f31eb",
			5150: "f32ff97f611934db22ea41e48d311497d5eca5b691d1932d81cd47fdf4d32b41",
		},
		"F128": {
			1:    "3cd9746699739c53e3535f8c1b85e2fd69d4a83a30c3cb17f331203fcaea7004",
			511:  "9e3d332f57a469d675497b7baa972a3e56af53d9107ed450e72f86949e0ae06d",
			512:  "1dd1aa0fad4af75e8b56529674a2e63fb3f698ceaa39a0286b73abd23c76081b",
			513:  "30d636e80c6fd658e4f610a2fe1e37f418efef10f281ccc7409ed925112044c6",
			5150: "1105805813429dbe3130d4e082116f6abae98d1e49816dfb5c99abfefeee01ff",
		},
		"FP87": {
			1:    "b83ae56b4a79ca454dc693f8a0afb22d95969f2ec60b9b485087f0f383d93ae4",
			511:  "93e03b7a7e026cecd964b03c4afcd63126353c4a25b5aaf0f0c29e23809b38f8",
			512:  "cc24cc5d920a099b37ef8c65044f0f89a2a34977970a5e495f83118f83a7b3ce",
			513:  "e504840a58f07b3394cd8261ed06a2b4ffb1a72a49fa284dc3dbea5015bfadb1",
			5150: "75358cac2d10f62e6f55618b76e31a3fbabf6328e0e8a9e48cf2293e6efc6021",
		},
		"F2": {
			1:    "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
			511:  "094b3dc02b8bdc01baa1eff4c0d6552bb34dfbb51db5ba716cb0624b1251a3bf",
			512:  "b18968460d3b5c2d36ff6dc8806910de3850478cd77acb372aa8a82fa77e465b",
			513:  "45bad927c935db1c5868c4be34e60d67efcc1bdea16178cf933fb4aa19de6cfd",
			5150: "536da5e481bcae89255924fbdbe8df1602ec5703858a43b1dde23f5c3748b070",
		},
	}
	for _, n := range []int{0, 1, 511, 512, 513, 5150} {
		got := map[string]string{
			"F64":  digest(field.NewF64(), Expand(field.NewF64(), goldenSeed, n)),
			"F128": digest(field.NewF128(), Expand(field.NewF128(), goldenSeed, n)),
			"FP87": digest(field.NewFP87(), Expand(field.NewFP87(), goldenSeed, n)),
			"F2":   digest(field.NewF2(), Expand(field.NewF2(), goldenSeed, n)),
		}
		for name, d := range got {
			w := want[name][n]
			if n == 0 {
				w = empty
			}
			if d != w {
				t.Errorf("%s n=%d: digest %s, want %s", name, n, d, w)
			}
		}
	}
}

// refExpand is the per-element reference expansion: one SampleElem per
// element over raw AES-CTR (zero IV, keyed by the seed), read through
// cipher.StreamReader with no buffering of its own.
func refExpand[Fd field.Field[E], E any](f Fd, seed prg.Seed, n int) []E {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic(err)
	}
	r := cipher.StreamReader{S: cipher.NewCTR(block, make([]byte, aes.BlockSize)), R: zeros{}}
	out := make([]E, n)
	for i := range out {
		if out[i], err = f.SampleElem(r); err != nil {
			panic(err)
		}
	}
	return out
}

// zeros is an endless stream of zero bytes; XORed with the CTR keystream it
// yields the keystream itself.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

func checkExpand[Fd field.Field[E], E any](t *testing.T, f Fd, seed prg.Seed, n int) {
	t.Helper()
	if !field.EqualVec(f, Expand(f, seed, n), refExpand(f, seed, n)) {
		t.Errorf("%s: Expand(%x, %d) diverges from the per-element reference", f.Name(), seed, n)
	}
}

// FuzzExpandMatchesReference checks Expand against the per-element
// reference for every field, for an arbitrary seed and n ≤ 8192.
func FuzzExpandMatchesReference(f *testing.F) {
	for _, n := range []uint16{0, 1, 511, 512, 513, 5150, 8192} {
		f.Add(goldenSeed[:], n)
	}
	f.Fuzz(func(t *testing.T, seedBytes []byte, nRaw uint16) {
		var seed prg.Seed
		copy(seed[:], seedBytes)
		n := int(nRaw) % 8193
		checkExpand(t, field.NewF64(), seed, n)
		checkExpand(t, field.NewF128(), seed, n)
		checkExpand(t, field.NewFP87(), seed, n)
		checkExpand(t, field.NewF2(), seed, n)
	})
}

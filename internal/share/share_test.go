package share

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"testing"
	"testing/quick"

	"prio/internal/field"
	"prio/internal/prg"
)

func TestSplitReconstruct(t *testing.T) {
	f := field.NewF64()
	for _, s := range []int{1, 2, 3, 5, 10} {
		x, err := field.SampleVec(f, rand.Reader, 32)
		if err != nil {
			t.Fatal(err)
		}
		shares, err := Split(f, rand.Reader, x, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(shares) != s {
			t.Fatalf("got %d shares, want %d", len(shares), s)
		}
		got := Reconstruct(f, shares...)
		if !field.EqualVec(f, got, x) {
			t.Errorf("s=%d: reconstruction mismatch", s)
		}
	}
}

func TestSplitReconstructQuick(t *testing.T) {
	f := field.NewF64()
	err := quick.Check(func(vals []uint64, sRaw uint8) bool {
		s := int(sRaw%9) + 1
		x := make([]uint64, len(vals))
		for i, v := range vals {
			x[i] = f.FromUint64(v)
		}
		shares, err := Split(f, rand.Reader, x, s)
		if err != nil {
			return false
		}
		return field.EqualVec(f, Reconstruct(f, shares...), x)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPartialSharesLookRandom(t *testing.T) {
	// Any s-1 shares must be independent of x. Sanity check: splitting the
	// all-zeros vector twice yields different first shares.
	f := field.NewF64()
	x := make([]uint64, 16)
	a, err := Split(f, rand.Reader, x, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Split(f, rand.Reader, x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if field.EqualVec(f, a[0], b[0]) {
		t.Error("first shares repeated across splits; sharing is not randomized")
	}
}

func TestSplitDoesNotMutateInput(t *testing.T) {
	f := field.NewF64()
	x := []uint64{1, 2, 3, 4}
	orig := append([]uint64(nil), x...)
	if _, err := Split(f, rand.Reader, x, 4); err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(f, x, orig) {
		t.Error("Split mutated its input")
	}
}

func TestSplitSeeded(t *testing.T) {
	testSplitSeeded(t, field.NewF64())
	testSplitSeeded(t, field.NewF128())
	testSplitSeeded(t, field.NewFP87())
	testSplitSeeded(t, field.NewF2())
}

func testSplitSeeded[Fd field.Field[E], E any](t *testing.T, f Fd) {
	x, err := field.SampleVec(f, rand.Reader, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 2, 5} {
		seeds, last, err := SplitSeeded(f, x, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(seeds) != s-1 {
			t.Fatalf("%s: got %d seeds, want %d", f.Name(), len(seeds), s-1)
		}
		shares := make([][]E, 0, s)
		for _, seed := range seeds {
			shares = append(shares, Expand(f, seed, len(x)))
		}
		shares = append(shares, last)
		if !field.EqualVec(f, Reconstruct(f, shares...), x) {
			t.Errorf("%s s=%d: seeded reconstruction mismatch", f.Name(), s)
		}
	}
}

// TestExpandIntoOverwrites checks that ExpandInto ignores dst's prior
// contents and agrees with Expand.
func TestExpandIntoOverwrites(t *testing.T) {
	f := field.NewF64()
	seed := prg.Seed{7}
	dst := make([]uint64, 1000)
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	ExpandInto(f, seed, dst)
	if !field.EqualVec(f, dst, Expand(f, seed, len(dst))) {
		t.Error("ExpandInto depends on dst's prior contents")
	}
}

// TestSampleF64Rejection drives the in-place F64 sampler over a crafted
// stream that plants out-of-range words (p, p+1, 2^64-1) and zeros, across
// several 4 KiB reads, and checks it against per-element SampleElem draws
// over the same bytes — with zero rejected as RLC coefficients require.
// The sampler must also stop right after the word that fills the last
// element, where per-element draws stop.
func TestSampleF64Rejection(t *testing.T) {
	f := field.NewF64()
	const words = 1500
	stream := make([]byte, 8*words)
	if _, err := rand.Read(stream); err != nil {
		t.Fatal(err)
	}
	planted := []uint64{field.ModulusF64, field.ModulusF64 + 1, ^uint64(0), 0}
	for i := 0; i < words; i += 3 {
		binary.LittleEndian.PutUint64(stream[8*i:], planted[(i/3)%len(planted)])
	}
	for _, lo := range []uint64{0, 1} {
		// The reference consumes whole draws from the same bytes.
		r := bytes.NewReader(stream)
		var want []uint64
		rest := 0
		for {
			v, err := f.SampleElem(r)
			if err != nil {
				break
			}
			if v >= lo {
				want = append(want, v)
				rest = r.Len()
			}
		}
		got := make([]uint64, len(want))
		src := bytes.NewReader(stream)
		sampleF64(src, got, lo)
		if !field.EqualVec(f, got, want) {
			t.Errorf("lo=%d: sampler diverges from per-element draws", lo)
		}
		if src.Len() != rest {
			t.Errorf("lo=%d: sampler left %d bytes unread, per-element draws leave %d", lo, src.Len(), rest)
		}
	}
}

func TestExpandDeterministic(t *testing.T) {
	f := field.NewF64()
	seed := prg.Seed{9, 9, 9}
	a := Expand(f, seed, 100)
	b := Expand(f, seed, 100)
	if !field.EqualVec(f, a, b) {
		t.Error("Expand is not deterministic")
	}
	// A prefix expansion must agree with a longer one.
	c := Expand(f, seed, 40)
	if !field.EqualVec(f, a[:40], c) {
		t.Error("Expand prefix mismatch")
	}
}

func TestXorSplitReconstruct(t *testing.T) {
	words := []uint64{0xDEADBEEF, 0, ^uint64(0), 12345}
	for _, s := range []int{1, 2, 3, 7} {
		shares, err := XorSplit(words, s)
		if err != nil {
			t.Fatal(err)
		}
		got := XorReconstruct(shares...)
		for i := range words {
			if got[i] != words[i] {
				t.Errorf("s=%d: word %d = %x, want %x", s, i, got[i], words[i])
			}
		}
	}
}

func TestBadShareCounts(t *testing.T) {
	f := field.NewF64()
	if _, err := Split(f, rand.Reader, []uint64{1}, 0); err == nil {
		t.Error("Split accepted s=0")
	}
	if _, _, err := SplitSeeded(f, []uint64{1}, 0); err == nil {
		t.Error("SplitSeeded accepted s=0")
	}
	if _, err := XorSplit([]uint64{1}, 0); err == nil {
		t.Error("XorSplit accepted s=0")
	}
	if got := Reconstruct[field.F64, uint64](f); got != nil {
		t.Error("Reconstruct of nothing should be nil")
	}
}

package poly

import (
	"crypto/rand"
	"testing"
	"testing/quick"

	"prio/internal/field"
)

func TestNTTLinearityQuick(t *testing.T) {
	// NTT(a + k·b) == NTT(a) + k·NTT(b): the property that lets servers
	// evaluate polynomial *shares* with the same machinery.
	f := field.NewF64()
	d := NewDomain(f, 5)
	err := quick.Check(func(seedA, seedB []uint64, k uint64) bool {
		if len(seedA) == 0 || len(seedB) == 0 {
			return true
		}
		k %= field.ModulusF64
		a := make([]uint64, d.N)
		b := make([]uint64, d.N)
		for i := 0; i < d.N; i++ {
			a[i] = seedA[i%len(seedA)] % field.ModulusF64
			b[i] = seedB[i%len(seedB)] % field.ModulusF64
		}
		comb := make([]uint64, d.N)
		for i := range comb {
			comb[i] = f.Add(a[i], f.Mul(k, b[i]))
		}
		d.NTT(a)
		d.NTT(b)
		d.NTT(comb)
		for i := range comb {
			if comb[i] != f.Add(a[i], f.Mul(k, b[i])) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInterpolateEvalQuick(t *testing.T) {
	f := field.NewF64()
	err := quick.Check(func(ys []uint64) bool {
		n := len(ys)
		if n == 0 || n > 10 {
			return true
		}
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = uint64(1000 + 13*i) // distinct
		}
		vals := make([]uint64, n)
		for i, y := range ys {
			vals[i] = y % field.ModulusF64
		}
		coeffs := Interpolate(f, xs, vals)
		for i := range xs {
			if Eval(f, coeffs, xs[i]) != vals[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEvalWeightsMatchHornerQuick(t *testing.T) {
	f := field.NewF64()
	d := NewDomain(f, 4)
	err := quick.Check(func(coeffSeed []uint64, r uint64) bool {
		if len(coeffSeed) == 0 {
			return true
		}
		r %= field.ModulusF64
		coeffs := make([]uint64, d.N)
		for i := range coeffs {
			coeffs[i] = coeffSeed[i%len(coeffSeed)] % field.ModulusF64
		}
		evals := append([]uint64(nil), coeffs...)
		d.NTT(evals)
		w := d.EvalWeights(r)
		return field.InnerProduct(f, w, evals) == Eval(f, coeffs, r)
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDomainPointPeriodicity(t *testing.T) {
	f := field.NewF64()
	d := NewDomain(f, 3)
	for i := 0; i < d.N; i++ {
		if d.Point(i) != d.Point(i+d.N) {
			t.Fatalf("Point not periodic at %d", i)
		}
	}
	// Points are distinct within a period.
	seen := map[uint64]bool{}
	for i := 0; i < d.N; i++ {
		if seen[d.Point(i)] {
			t.Fatalf("duplicate domain point at %d", i)
		}
		seen[d.Point(i)] = true
	}
}

func TestBatchInvMatchesInvQuick(t *testing.T) {
	f := field.NewF64()
	err := quick.Check(func(vals []uint64) bool {
		a := make([]uint64, len(vals))
		for i, v := range vals {
			a[i] = v % field.ModulusF64
		}
		inv := BatchInv(f, a)
		for i := range a {
			if inv[i] != f.Inv(a[i]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransformPanicsOnWrongLength(t *testing.T) {
	f := field.NewF64()
	d := NewDomain(f, 3)
	defer func() {
		if recover() == nil {
			t.Error("NTT accepted wrong-length input")
		}
	}()
	d.NTT(make([]uint64, d.N-1))
}

func TestF128DomainAgainstReference(t *testing.T) {
	f := field.NewF128()
	d := NewDomain(f, 3)
	coeffs, err := field.SampleVec(f, rand.Reader, d.N)
	if err != nil {
		t.Fatal(err)
	}
	evals := append([]field.U128(nil), coeffs...)
	d.NTT(evals)
	for j := 0; j < d.N; j++ {
		want := Eval(f, coeffs, d.Point(j))
		if !f.Equal(evals[j], want) {
			t.Fatalf("F128 NTT[%d] mismatch", j)
		}
	}
}

// genericF64 is F64 behind a distinct type, so a Domain over it takes the
// generic, dictionary-dispatched butterfly rather than the F64 one.
type genericF64 struct{ field.F64 }

// TestF64ButterflyMatchesGeneric checks that NTT and INTT over F64 agree
// exactly with the generic transform, for every size up to 4096 points, on
// random vectors and on vectors of edge values (0, 1, p-2, p-1).
func TestF64ButterflyMatchesGeneric(t *testing.T) {
	f := field.NewF64()
	edges := []uint64{0, 1, field.ModulusF64 - 2, field.ModulusF64 - 1}
	for logN := 0; logN <= 12; logN++ {
		fast := NewDomain(f, logN)
		ref := NewDomain(genericF64{f}, logN)
		inputs := [][]uint64{randVec(t, fast.N), make([]uint64, fast.N)}
		for i := range inputs[1] {
			inputs[1][i] = edges[i%len(edges)]
		}
		for k, in := range inputs {
			a := append([]uint64(nil), in...)
			b := append([]uint64(nil), in...)
			fast.NTT(a)
			ref.NTT(b)
			if !field.EqualVec(f, a, b) {
				t.Fatalf("logN=%d input %d: F64 NTT differs from the generic NTT", logN, k)
			}
			fast.INTT(a)
			ref.INTT(b)
			if !field.EqualVec(f, a, b) {
				t.Fatalf("logN=%d input %d: F64 INTT differs from the generic INTT", logN, k)
			}
			if !field.EqualVec(f, a, in) {
				t.Fatalf("logN=%d input %d: INTT(NTT(a)) != a", logN, k)
			}
		}
	}
}

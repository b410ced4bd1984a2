package snip

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"prio/internal/circuit"
	"prio/internal/field"
)

// bitVector is the BitVector(M) validation circuit: M inputs, each asserted
// to be a bit, so M multiplication gates.
func bitVector[Fd field.Field[E], E any](f Fd, m int) *circuit.Circuit[E] {
	b := circuit.NewBuilder(f, m)
	for i := 0; i < m; i++ {
		b.AssertBit(b.Input(i))
	}
	return b.Build()
}

// bitInput is a fixed valid input for bitVector: bit i is set when i%3 == 1.
func bitInput[Fd field.Field[E], E any](f Fd, m int) []E {
	x := make([]E, m)
	for i := range x {
		x[i] = f.Zero()
		if i%3 == 1 {
			x[i] = f.One()
		}
	}
	return x
}

// proveDigest is the SHA-256 of the canonical encoding of the flattened
// proof Prove builds for bitInput under the deterministic ctrReader.
func proveDigest[Fd field.Field[E], E any](t *testing.T, f Fd, m int) string {
	t.Helper()
	sys, err := NewSystem(f, bitVector(f, m), Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := sys.Prove(bitInput(f, m), &ctrReader{})
	if err != nil {
		t.Fatal(err)
	}
	d := sha256.Sum256(field.AppendVec(f, nil, sys.FlattenProof(pf)))
	return hex.EncodeToString(d[:])
}

// TestProveGolden pins Prove's output bit for bit, per field and circuit
// size. The proof is what a client uploads, so a faster prover must yield
// these exact bytes; the digests were recorded from the zero-padded
// 2N-point NTT prover.
func TestProveGolden(t *testing.T) {
	want := map[string]map[int]string{
		"F64": {
			1:    "db6a608ec8fcead07312779cbc549cab27745aded6e077aa8c7ff22f0b0e6aec",
			3:    "e50d6df2ca85f307ad721574d8fd4843d9868a45535d3bb182c8a0b821c2fd56",
			100:  "7e8f102c6b24cc98f598894440b60a80febc41ae6d95a7b6a5b9549a8f0547a0",
			1024: "e61b408162bd611bf33edf23d17756b6dc69111878e933637e37685a97a18581",
		},
		"F128": {
			1:    "44a48cde3cae2b207c141ea03dee1f6df086424e58af42ab8b3d82ed5389c3bc",
			3:    "b2ebdea77191168621874af4f1543011f81b01127bd2c39bd459186ec242bda6",
			100:  "fbb40984119ede1a19adc1109f20b83b08d644f3d11bc1cf366b4cdd36b12d54",
			1024: "ba60bf7ca01c5c4507b4d58b91594450cb669ccf368013354d3f3f01e66042c1",
		},
		"FP87": {
			1:    "3ff6a0efff235d8f673dc443c45a50625ea8612afd50935cd07e2bd550d03fde",
			3:    "a70776f10fcece65ad90450f993f4055ffc85a1ae73a90616c67d56972b81d9c",
			100:  "0d55aacf060a7cf577eb715643c495af4a941f46b3831bc20d5700daf055113f",
			1024: "2d12ae9f799571223100b84962200b14359a6c27a791ea0fabf1c9bfd3d0b6be",
		},
	}
	for _, m := range []int{1, 3, 100, 1024} {
		got := map[string]string{
			"F64":  proveDigest(t, field.NewF64(), m),
			"F128": proveDigest(t, field.NewF128(), m),
			"FP87": proveDigest(t, field.NewFP87(), m),
		}
		for name, d := range got {
			if w := want[name][m]; d != w {
				t.Errorf("%s M=%d: digest %s, want %s", name, m, d, w)
			}
		}
	}
}

// TestHMatchesDoubleNTT checks Prove's H against the textbook construction:
// interpolate f and g over the N-domain, zero-pad the coefficients to 2N,
// evaluate with a 2N-point NTT and multiply pointwise.
func TestHMatchesDoubleNTT(t *testing.T) {
	testHMatchesDoubleNTT(t, field.NewF64())
	testHMatchesDoubleNTT(t, field.NewF128())
	testHMatchesDoubleNTT(t, field.NewFP87())
}

func testHMatchesDoubleNTT[Fd field.Field[E], E any](t *testing.T, f Fd) {
	for _, m := range []int{1, 2, 3, 8, 100, 1024} {
		sys, err := NewSystem(f, bitVector(f, m), Params{Reps: 2})
		if err != nil {
			t.Fatal(err)
		}
		x := bitInput(f, m)
		pf, err := sys.Prove(x, &ctrReader{n: byte(m)})
		if err != nil {
			t.Fatal(err)
		}
		tr := circuit.Eval(f, sys.C, x)
		fv := make([]E, 2*sys.N)
		gv := make([]E, 2*sys.N)
		for i := range fv {
			fv[i], gv[i] = f.Zero(), f.Zero()
		}
		fv[0], gv[0] = pf.F0, pf.G0
		copy(fv[1:], tr.U)
		copy(gv[1:], tr.V)
		copy(fv[sys.M+1:], pf.FPad)
		copy(gv[sys.M+1:], pf.GPad)
		sys.dN.INTT(fv[:sys.N])
		sys.dN.INTT(gv[:sys.N])
		sys.d2N.NTT(fv)
		sys.d2N.NTT(gv)
		if len(pf.H) != 2*sys.N {
			t.Fatalf("%s M=%d: len(H) = %d, want %d", f.Name(), m, len(pf.H), 2*sys.N)
		}
		for i := range pf.H {
			if want := f.Mul(fv[i], gv[i]); !f.Equal(pf.H[i], want) {
				t.Fatalf("%s M=%d: H[%d] differs from the 2N-point NTT reference", f.Name(), m, i)
			}
		}
	}
}

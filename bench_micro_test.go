package prio_test

import (
	"crypto/rand"
	"fmt"
	"testing"

	"prio"
	"prio/internal/circuit"
	"prio/internal/field"
	"prio/internal/poly"
	"prio/internal/prg"
	"prio/internal/sealbox"
	"prio/internal/share"
	"prio/internal/snip"
)

// Microbenchmarks of the substrates underneath every experiment: field
// multiplication (Table 3's "Mul. in field" row), the NTT, SNIP proving and
// the per-server verification work, and share expansion. These are the
// ablation handles for the design decisions in DESIGN.md (NTT domain,
// precomputed evaluation weights, PRG share compression).

// sinkF64 keeps BenchmarkFieldMul/F64's result live: F64.Mul inlines, so
// without it the compiler drops the multiplication loop as dead code.
var sinkF64 uint64

func BenchmarkFieldMul(b *testing.B) {
	b.Run("F64", func(b *testing.B) {
		f := field.NewF64()
		x, _ := f.SampleElem(rand.Reader)
		y, _ := f.SampleElem(rand.Reader)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x = f.Mul(x, y)
		}
		sinkF64 = x
	})
	b.Run("F128", func(b *testing.B) {
		f := field.NewF128()
		x, _ := f.SampleElem(rand.Reader)
		y, _ := f.SampleElem(rand.Reader)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x = f.Mul(x, y)
		}
	})
	b.Run("FP87", func(b *testing.B) {
		f := field.NewFP87()
		x, _ := f.SampleElem(rand.Reader)
		y, _ := f.SampleElem(rand.Reader)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x = f.Mul(x, y)
		}
	})
	b.Run("FP265", func(b *testing.B) {
		f := field.NewFP265()
		x, _ := f.SampleElem(rand.Reader)
		y, _ := f.SampleElem(rand.Reader)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x = f.Mul(x, y)
		}
	})
}

func BenchmarkNTT(b *testing.B) {
	f := field.NewF64()
	for _, logN := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("N=%d", 1<<logN), func(b *testing.B) {
			d := poly.NewDomain(f, logN)
			a, err := field.SampleVec(f, rand.Reader, d.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.NTT(a)
			}
		})
	}
}

func BenchmarkEvalWeights(b *testing.B) {
	// The per-challenge precomputation of Appendix I optimization 2.
	f := field.NewF64()
	d := poly.NewDomain(f, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.EvalWeights(uint64(i + 2<<20))
	}
}

func bitCircuitF64(l int) *circuit.Circuit[uint64] {
	f := field.NewF64()
	bld := circuit.NewBuilder(f, l)
	for i := 0; i < l; i++ {
		bld.AssertBit(bld.Input(i))
	}
	return bld.Build()
}

func BenchmarkSNIPProve(b *testing.B) {
	f := field.NewF64()
	for _, m := range []int{64, 1024} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			sys, err := snip.NewSystem(f, bitCircuitF64(m), snip.Params{})
			if err != nil {
				b.Fatal(err)
			}
			x := make([]uint64, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Prove(x, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSNIPVerifyServer(b *testing.B) {
	// One server's local Round1+Round2 work per submission (the dominant
	// verification cost; network rounds are measured in Fig 4/6).
	f := field.NewF64()
	for _, m := range []int{64, 1024} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			sys, err := snip.NewSystem(f, bitCircuitF64(m), snip.Params{})
			if err != nil {
				b.Fatal(err)
			}
			x := make([]uint64, m)
			pf, err := sys.Prove(x, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			ch, err := sys.NewChallenge(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			ev := sys.NewEvaluator(ch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, r1, err := ev.Round1(x, pf, true)
				if err != nil {
					b.Fatal(err)
				}
				_ = ev.Round2(st, r1, 1)
			}
		})
	}
}

func BenchmarkShareExpand(b *testing.B) {
	// PRG share expansion (Appendix I optimization 1): the non-leader
	// servers' cost of materializing a seeded share.
	f := field.NewF64()
	seed, err := prgSeed()
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			b.SetBytes(int64(8 * l))
			for i := 0; i < b.N; i++ {
				_ = share.Expand(f, seed, l)
			}
		})
	}
}

func BenchmarkSplitSeeded(b *testing.B) {
	f := field.NewF64()
	x, err := field.SampleVec(f, rand.Reader, 4096)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := share.SplitSeeded(f, x, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// prgSeed draws a fresh PRG seed for the expansion benchmarks.
// BenchmarkBuildSubmission is the client layer end to end: proving,
// PRG-compressed splitting and sealing one submission to three servers, as
// the perfbench load generator and prio-client do it.
func BenchmarkBuildSubmission(b *testing.B) {
	sum8, bits1024 := prio.NewSum(8), prio.NewBitVector(1024)
	sumEnc, err := sum8.Encode(200)
	if err != nil {
		b.Fatal(err)
	}
	bitsEnc, err := bits1024.Encode(make([]bool, 1024))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		scheme prio.Scheme
		enc    []uint64
	}{
		{"sum8", sum8, sumEnc},
		{"bits1024", bits1024, bitsEnc},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const servers = 3
			pro, err := prio.NewProtocol(prio.Config{Scheme: tc.scheme, Servers: servers, Mode: prio.ModePrio, Seal: true})
			if err != nil {
				b.Fatal(err)
			}
			pubs := make([]*sealbox.PublicKey, servers)
			for i := range pubs {
				if pubs[i], _, err = sealbox.GenerateKey(); err != nil {
					b.Fatal(err)
				}
			}
			c, err := prio.NewClient(pro, pubs, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.BuildSubmission(tc.enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func prgSeed() (prg.Seed, error) { return prg.NewSeed() }

package core

import (
	"testing"

	"prio/internal/afe"
	"prio/internal/field"
	"prio/internal/sealbox"
)

// bundleSeeds returns the plaintexts of a real client's bundles (the
// explicit share for server 0, a PRG seed for server 1) and structural
// mutations of them, keyed by name.
func bundleSeeds(tb testing.TB, pro *Protocol[field.F64, uint64], pubs []*sealbox.PublicKey, privs []*sealbox.PrivateKey) map[string][]byte {
	tb.Helper()
	c, err := NewClient(pro, pubs, nil)
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := pro.Cfg.Scheme.(*afe.Sum[field.F64, uint64]).Encode(200)
	if err != nil {
		tb.Fatal(err)
	}
	sub, err := c.BuildSubmission(enc)
	if err != nil {
		tb.Fatal(err)
	}
	explicit, err := sealbox.Open(privs[0], sub.Bundles[0])
	if err != nil {
		tb.Fatal(err)
	}
	seed, err := sealbox.Open(privs[1], sub.Bundles[1])
	if err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{
		"explicit":     explicit,
		"seed":         seed,
		"unknown-flag": append([]byte{0x7f}, seed[1:]...),
		"short":        explicit[:len(explicit)-1],
		"over-long":    append(append([]byte(nil), explicit...), 0),
	}
}

// FuzzDecodeBundle drives a server's post-unseal bundle decoding with
// arbitrary plaintexts. A malicious client holds every server's public key,
// so it can seal any bytes it likes: the sealbox check passes and only
// decodeBundle, splitFlat and UnflattenProof stand between those bytes and
// the verifier. They must never panic; each input either errors or yields
// a share vector of exactly flatLen elements that splits and unflattens.
func FuzzDecodeBundle(f *testing.F) {
	fd := field.NewF64()
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field: fd, Scheme: afe.NewSum(fd, 8), Servers: 3, Mode: ModeSNIP, SnipReps: 2, Seal: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	pubs := make([]*sealbox.PublicKey, 3)
	privs := make([]*sealbox.PrivateKey, 3)
	for i := range pubs {
		if pubs[i], privs[i], err = sealbox.GenerateKey(); err != nil {
			f.Fatal(err)
		}
	}
	for _, pt := range bundleSeeds(f, pro, pubs, privs) {
		f.Add(pt)
	}
	f.Fuzz(func(t *testing.T, pt []byte) {
		box, err := sealbox.Seal(pubs[0], pt)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := pro.decodeBundle(box, privs[0])
		if err != nil {
			return
		}
		if len(flat) != pro.flatLen {
			t.Fatalf("decoded %d elements, want %d", len(flat), pro.flatLen)
		}
		for i, e := range flat {
			if e >= field.ModulusF64 {
				t.Fatalf("element %d = %d is not canonical", i, e)
			}
		}
		_, _, proofFlat, err := pro.splitFlat(flat)
		if err != nil {
			t.Fatalf("splitFlat rejected a decoded share: %v", err)
		}
		if _, err := pro.ValidSys.UnflattenProof(proofFlat); err != nil {
			t.Fatalf("UnflattenProof rejected a decoded share: %v", err)
		}
	})
}

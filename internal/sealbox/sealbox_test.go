package sealbox

import (
	"bytes"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 1, 16, 1000, 100000} {
		pt := bytes.Repeat([]byte{0xAB}, size)
		box, err := Seal(pub, pt)
		if err != nil {
			t.Fatal(err)
		}
		if len(box) != size+Overhead {
			t.Errorf("box size = %d, want %d", len(box), size+Overhead)
		}
		got, err := Open(priv, box)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, pt) {
			t.Error("plaintext mismatch")
		}
	}
}

func TestTamperDetection(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	box, err := Seal(pub, []byte("secret submission"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(box); i += 7 {
		mutated := append([]byte(nil), box...)
		mutated[i] ^= 0x01
		if _, err := Open(priv, mutated); err == nil {
			t.Errorf("tampering at byte %d went undetected", i)
		}
	}
}

func TestWrongRecipient(t *testing.T) {
	pubA, _, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	_, privB, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	box, err := Seal(pubA, []byte("for A only"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(privB, box); err == nil {
		t.Error("wrong recipient opened the box")
	}
}

func TestNondeterministic(t *testing.T) {
	pub, _, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := Seal(pub, []byte("x"))
	b, _ := Seal(pub, []byte("x"))
	if bytes.Equal(a, b) {
		t.Error("two seals of the same message are identical")
	}
}

func TestShortBoxRejected(t *testing.T) {
	_, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(priv, make([]byte, Overhead-1)); err == nil {
		t.Error("short box accepted")
	}
}

func TestPrivateKeyEncoding(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	b := priv.Bytes()
	if len(b) != 32 {
		t.Fatalf("private key length %d", len(b))
	}
	back, err := ParsePrivateKey(b)
	if err != nil {
		t.Fatal(err)
	}
	// A restarted server with the persisted key must open boxes sealed to
	// the original public key (the cluster failover scenario).
	box, err := Seal(pub, []byte("sealed before restart"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(back, box); err != nil {
		t.Fatalf("restored key failed to open: %v", err)
	}
	if _, err := ParsePrivateKey(b[:31]); err == nil {
		t.Error("short private key accepted")
	}
}

func TestPublicKeyEncoding(t *testing.T) {
	pub, _, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	b := pub.Bytes()
	if len(b) != 32 {
		t.Fatalf("public key length %d", len(b))
	}
	back, err := ParsePublicKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), b) {
		t.Error("public key round trip failed")
	}
	if _, err := ParsePublicKey(b[:31]); err == nil {
		t.Error("short public key accepted")
	}
}

// sealEachFixture seals a distinct plaintext to each of three fresh keys
// with one SealEach call.
func sealEachFixture(t *testing.T) ([]*PrivateKey, [][]byte, [][]byte) {
	t.Helper()
	const n = 3
	pubs := make([]*PublicKey, n)
	privs := make([]*PrivateKey, n)
	pts := make([][]byte, n)
	for i := range pubs {
		var err error
		if pubs[i], privs[i], err = GenerateKey(); err != nil {
			t.Fatal(err)
		}
		pts[i] = bytes.Repeat([]byte{byte(i + 1)}, 10*i)
	}
	boxes, err := SealEach(pubs, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != n {
		t.Fatalf("SealEach returned %d boxes, want %d", len(boxes), n)
	}
	return privs, pts, boxes
}

func TestSealEachOpens(t *testing.T) {
	privs, pts, boxes := sealEachFixture(t)
	for i, box := range boxes {
		if len(box) != len(pts[i])+Overhead {
			t.Errorf("box %d: size %d, want %d", i, len(box), len(pts[i])+Overhead)
		}
		got, err := Open(privs[i], box)
		if err != nil {
			t.Fatalf("box %d: Open: %v", i, err)
		}
		if !bytes.Equal(got, pts[i]) {
			t.Errorf("box %d: plaintext mismatch", i)
		}
	}
}

func TestSealEachSharesEphemeralKey(t *testing.T) {
	_, _, boxes := sealEachFixture(t)
	nonces := map[string]bool{}
	for i, box := range boxes {
		if !bytes.Equal(box[:32], boxes[0][:32]) {
			t.Errorf("box %d carries a different ephemeral key", i)
		}
		nonces[string(box[32:32+nonceSize])] = true
	}
	if len(nonces) != len(boxes) {
		t.Errorf("%d distinct nonces across %d boxes", len(nonces), len(boxes))
	}
}

func TestSealEachWrongRecipient(t *testing.T) {
	privs, _, boxes := sealEachFixture(t)
	for i, box := range boxes {
		for j, priv := range privs {
			if i == j {
				continue
			}
			if _, err := Open(priv, box); err == nil {
				t.Errorf("box %d opened under key %d", i, j)
			}
		}
	}
}

func TestSealEachTamperIsolated(t *testing.T) {
	privs, _, boxes := sealEachFixture(t)
	for victim := range boxes {
		for _, pos := range []int{0, 31, 32, 32 + nonceSize, len(boxes[victim]) - 1} {
			mutated := make([][]byte, len(boxes))
			for i := range boxes {
				mutated[i] = append([]byte(nil), boxes[i]...)
			}
			mutated[victim][pos] ^= 0x01
			for i, box := range mutated {
				_, err := Open(privs[i], box)
				if i == victim && err == nil {
					t.Errorf("flip at byte %d of box %d went undetected", pos, victim)
				}
				if i != victim && err != nil {
					t.Errorf("flip in box %d broke box %d: %v", victim, i, err)
				}
			}
		}
	}
}

func TestSealEachOneRecipient(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("one recipient")
	boxes, err := SealEach([]*PublicKey{pub}, [][]byte{pt})
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 || len(boxes[0]) != len(pt)+Overhead {
		t.Fatalf("one-recipient seal: %d boxes, want 1 of %d bytes", len(boxes), len(pt)+Overhead)
	}
	if got, err := Open(priv, boxes[0]); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("one-recipient box did not open: %v", err)
	}
	if _, err := SealEach([]*PublicKey{pub}, nil); err == nil {
		t.Error("SealEach accepted mismatched recipient and plaintext counts")
	}
}

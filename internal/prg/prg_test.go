package prg

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"testing"
)

// katSeed is the known-answer seed 00 01 … 0f.
var katSeed = Seed{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// TestKnownAnswer pins the first 64 bytes of the stream. Seeds travel on
// the wire, so the stream is part of the protocol: this value must never
// change. The first block is the FIPS-197 AES-128 encryption of the zero
// block under key 00 01 … 0f.
func TestKnownAnswer(t *testing.T) {
	const want = "c6a13b37878f5b826f4f8162a1c8d879" +
		"7346139595c0b41e497bbde365f42d0a" +
		"49d68753999ba68ce3897a686081b09d" +
		"b9ad2b2e346ac238505d365e9cb7fc56"
	got := make([]byte, 64)
	if _, err := New(katSeed).Read(got); err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != want {
		t.Fatalf("stream = %x, want %s", got, want)
	}
}

// refStream is the stream computed directly with AES-CTR (zero IV), in one
// XORKeyStream call over n zero bytes.
func refStream(seed Seed, n int) []byte {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic(err)
	}
	out := make([]byte, n)
	cipher.NewCTR(block, make([]byte, aes.BlockSize)).XORKeyStream(out, out)
	return out
}

// TestChunkedReadsAcrossBlocks reads chunks that straddle AES block and
// 4 KiB boundaries and checks that they concatenate to the one-shot stream.
func TestChunkedReadsAcrossBlocks(t *testing.T) {
	sizes := []int{1, 7, 8, 4095, 4096, 4097}
	total := 0
	for _, n := range sizes {
		total += n
	}
	one := make([]byte, total)
	New(katSeed).Read(one)
	if !bytes.Equal(one, refStream(katSeed, total)) {
		t.Fatal("one-shot read diverges from raw AES-CTR")
	}
	// Every rotation of the size list, so each size starts at several
	// offsets into the buffer.
	for r := range sizes {
		g := New(katSeed)
		var chunks []byte
		for i := range sizes {
			buf := bytes.Repeat([]byte{0xAA}, sizes[(r+i)%len(sizes)])
			g.Read(buf)
			chunks = append(chunks, buf...)
		}
		if !bytes.Equal(one, chunks) {
			t.Fatalf("rotation %d: chunked reads diverge from one-shot read", r)
		}
	}
}

func TestDeterministic(t *testing.T) {
	seed := Seed{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	a := make([]byte, 1000)
	b := make([]byte, 1000)
	if _, err := New(seed).Read(a); err != nil {
		t.Fatal(err)
	}
	if _, err := New(seed).Read(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different streams")
	}
}

func TestSeedSensitivity(t *testing.T) {
	var s1, s2 Seed
	s2[0] = 1
	a := make([]byte, 64)
	b := make([]byte, 64)
	New(s1).Read(a)
	New(s2).Read(b)
	if bytes.Equal(a, b) {
		t.Error("different seeds produced identical streams")
	}
}

func TestChunkedReadsMatchOneShot(t *testing.T) {
	seed, err := NewSeed()
	if err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 256)
	New(seed).Read(one)

	g := New(seed)
	var chunks []byte
	for _, n := range []int{1, 3, 16, 17, 64, 155} {
		buf := make([]byte, n)
		g.Read(buf)
		chunks = append(chunks, buf...)
	}
	if !bytes.Equal(one, chunks) {
		t.Error("chunked reads diverge from one-shot read")
	}
}

func TestOutputOverwritesInput(t *testing.T) {
	seed := Seed{42}
	buf := bytes.Repeat([]byte{0xAA}, 32)
	New(seed).Read(buf)
	ref := make([]byte, 32)
	New(seed).Read(ref)
	if !bytes.Equal(buf, ref) {
		t.Error("Read output depends on prior buffer contents")
	}
}

func TestNewSeedUnique(t *testing.T) {
	a, err := NewSeed()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSeed()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("two fresh seeds are equal")
	}
}

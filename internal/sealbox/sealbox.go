// Package sealbox provides anonymous public-key authenticated encryption of
// client submissions, standing in for the NaCl "box" primitive the paper's
// prototype uses (Section 6: clients encrypt and sign their messages to
// servers, which obviates client-to-server TLS).
//
// Construction: an ephemeral X25519 key agreement with the recipient's
// static key, HKDF-SHA256 key derivation bound to both public keys, and
// AES-256-GCM. Each box is
//
//	ephemeral_pk (32) ‖ nonce (12) ‖ AES-GCM ciphertext.
//
// A client draws one ephemeral key per submission and seals its bundle for
// server i to server i's key (SealEach), so the boxes of one submission
// carry the same ephemeral key. Reusing the ephemeral randomness across
// recipients is secure for DHIES-style schemes (Bellare, Boldyreva and
// Staddon, PKC 2003): each box's AEAD key is derived from its own shared
// secret and bound to its recipient's public key, and every box draws its
// own nonce. The shared key links the boxes of one submission, which the
// servers can already do through the leader's batch position.
//
// Like NaCl's sealed boxes, sender anonymity is inherent: the ephemeral key
// identifies nobody, which is what a private aggregation system wants from
// its upload path.
package sealbox

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"io"
)

// Overhead is the number of bytes Seal adds to a plaintext.
const Overhead = 32 + nonceSize + 16

const nonceSize = 12

// ErrDecrypt reports an undecryptable or tampered box.
var ErrDecrypt = errors.New("sealbox: decryption failed")

// PublicKey identifies a recipient (a Prio server).
type PublicKey struct {
	k *ecdh.PublicKey
}

// PrivateKey opens boxes sealed to the matching PublicKey.
type PrivateKey struct {
	k *ecdh.PrivateKey
}

// GenerateKey creates a fresh X25519 key pair.
func GenerateKey() (*PublicKey, *PrivateKey, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	return &PublicKey{k: priv.PublicKey()}, &PrivateKey{k: priv}, nil
}

// Bytes returns the 32-byte wire encoding of the public key.
func (p *PublicKey) Bytes() []byte { return p.k.Bytes() }

// ParsePublicKey decodes a 32-byte X25519 public key.
func ParsePublicKey(b []byte) (*PublicKey, error) {
	k, err := ecdh.X25519().NewPublicKey(b)
	if err != nil {
		return nil, err
	}
	return &PublicKey{k: k}, nil
}

// Public returns the public half of the key.
func (p *PrivateKey) Public() *PublicKey { return &PublicKey{k: p.k.PublicKey()} }

// Bytes returns the 32-byte encoding of the private scalar, for servers that
// persist their identity across restarts (cmd/prio-server -key-file). Treat
// the output as a secret.
func (p *PrivateKey) Bytes() []byte { return p.k.Bytes() }

// ParsePrivateKey decodes a 32-byte X25519 private key produced by
// PrivateKey.Bytes.
func ParsePrivateKey(b []byte) (*PrivateKey, error) {
	k, err := ecdh.X25519().NewPrivateKey(b)
	if err != nil {
		return nil, err
	}
	return &PrivateKey{k: k}, nil
}

// deriveKey computes the AEAD key for (shared secret, epk, rpk): HKDF-SHA256
// (RFC 5869) with the concatenated public keys as salt, inlined over
// crypto/hmac so the module builds on every toolchain go.mod admits.
func deriveKey(shared, epk, rpk []byte) ([]byte, error) {
	salt := make([]byte, 0, 64)
	salt = append(salt, epk...)
	salt = append(salt, rpk...)
	// Extract: PRK = HMAC(salt, IKM).
	ext := hmac.New(sha256.New, salt)
	ext.Write(shared)
	prk := ext.Sum(nil)
	// Expand: one block suffices for a 32-byte output (SHA-256 width).
	exp := hmac.New(sha256.New, prk)
	exp.Write([]byte("prio/sealbox/v1"))
	exp.Write([]byte{1})
	return exp.Sum(nil), nil
}

// Seal encrypts plaintext to the recipient, prepending the ephemeral public
// key and nonce. It is SealEach with one recipient.
func Seal(recipient *PublicKey, plaintext []byte) ([]byte, error) {
	boxes, err := SealEach([]*PublicKey{recipient}, [][]byte{plaintext})
	if err != nil {
		return nil, err
	}
	return boxes[0], nil
}

// SealEach seals plaintexts[i] to recipients[i] under one ephemeral key: a
// client seals its per-server bundles with s+1 X25519 scalar
// multiplications instead of 2s. Every box has Seal's format and its own
// random nonce and AEAD key, and opens with Open.
func SealEach(recipients []*PublicKey, plaintexts [][]byte) ([][]byte, error) {
	if len(recipients) != len(plaintexts) {
		return nil, errors.New("sealbox: recipient and plaintext counts differ")
	}
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	epk := eph.PublicKey().Bytes()
	boxes := make([][]byte, len(recipients))
	for i, recipient := range recipients {
		shared, err := eph.ECDH(recipient.k)
		if err != nil {
			return nil, err
		}
		key, err := deriveKey(shared, epk, recipient.k.Bytes())
		if err != nil {
			return nil, err
		}
		block, err := aes.NewCipher(key)
		if err != nil {
			return nil, err
		}
		aead, err := cipher.NewGCM(block)
		if err != nil {
			return nil, err
		}
		out := make([]byte, 0, len(plaintexts[i])+Overhead)
		out = append(out, epk...)
		nonce := make([]byte, nonceSize)
		if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
			return nil, err
		}
		out = append(out, nonce...)
		boxes[i] = aead.Seal(out, nonce, plaintexts[i], epk)
	}
	return boxes, nil
}

// Open decrypts a box produced by Seal for this private key.
func Open(priv *PrivateKey, box []byte) ([]byte, error) {
	if len(box) < Overhead {
		return nil, ErrDecrypt
	}
	epkBytes := box[:32]
	nonce := box[32 : 32+nonceSize]
	ct := box[32+nonceSize:]
	epk, err := ecdh.X25519().NewPublicKey(epkBytes)
	if err != nil {
		return nil, ErrDecrypt
	}
	shared, err := priv.k.ECDH(epk)
	if err != nil {
		return nil, ErrDecrypt
	}
	key, err := deriveKey(shared, epkBytes, priv.k.PublicKey().Bytes())
	if err != nil {
		return nil, ErrDecrypt
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, ErrDecrypt
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, ErrDecrypt
	}
	pt, err := aead.Open(nil, nonce, ct, epkBytes)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// Package chain implements the objects the propagation protocols carry:
// transactions spending to ECDSA key addresses and proof-of-work blocks
// with Merkle commitments, with their sizes and IDs.
//
// No node keeps a ledger. The "verify then relay" step of Fig. 1 of the
// paper is a virtual delay (VerifyCostModel), not a signature check, and
// the one ledger decision a double-spend race needs — a node keeps the
// first of two transactions spending the same output — is a rule of the
// p2p layer, which sees every node's inventory.
package chain

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// AddressSize is the length of a pay-to-pubkey-hash address in bytes.
// Bitcoin uses RIPEMD160(SHA256(pub)) = 20 bytes; RIPEMD-160 is not in the
// Go standard library, so we use the first 20 bytes of a double SHA-256,
// which preserves the size and collision-resistance properties that matter
// here.
const AddressSize = 20

// Address identifies the owner of an output.
type Address [AddressSize]byte

// String returns the hex form of the address.
func (a Address) String() string { return hex.EncodeToString(a[:]) }

// KeyPair is an ECDSA P-256 public key with its derived address.
type KeyPair struct {
	pub  []byte // uncompressed SEC1 point
	addr Address
}

// GenerateKey creates a key pair from the given entropy source, which
// must be seeded: the same seed yields the same key.
//
// The scalar is derived from the entropy stream directly (rejection-
// sampled into [1, N-1]) rather than via ecdsa.GenerateKey, which
// deliberately defeats deterministic readers (randutil.MaybeReadByte) —
// reproducible experiments need the same seed to yield the same key.
func GenerateKey(entropy io.Reader) (*KeyPair, error) {
	curve := elliptic.P256()
	params := curve.Params()
	byteLen := (params.N.BitLen() + 7) / 8
	buf := make([]byte, byteLen)
	for attempt := 0; attempt < 128; attempt++ {
		if _, err := io.ReadFull(entropy, buf); err != nil {
			return nil, fmt.Errorf("chain: generate key: %w", err)
		}
		k := new(big.Int).SetBytes(buf)
		if k.Sign() == 0 || k.Cmp(params.N) >= 0 {
			continue
		}
		priv := &ecdsa.PrivateKey{
			PublicKey: ecdsa.PublicKey{Curve: curve},
			D:         k,
		}
		priv.X, priv.Y = curve.ScalarBaseMult(k.Bytes())
		return newKeyPair(priv), nil
	}
	return nil, errors.New("chain: generate key: entropy source never produced a valid scalar")
}

func newKeyPair(priv *ecdsa.PrivateKey) *KeyPair {
	pub := elliptic.Marshal(elliptic.P256(), priv.PublicKey.X, priv.PublicKey.Y)
	return &KeyPair{pub: pub, addr: PubKeyAddress(pub)}
}

// PubKey returns the uncompressed public key bytes.
func (k *KeyPair) PubKey() []byte { return k.pub }

// Address returns the pay-to-pubkey-hash address of the key.
func (k *KeyPair) Address() Address { return k.addr }

// PubKeyAddress derives the address for a serialized public key.
func PubKeyAddress(pub []byte) Address {
	h := DoubleSHA256(pub)
	var a Address
	copy(a[:], h[:AddressSize])
	return a
}

// Hash is a 32-byte double-SHA256 digest, Bitcoin's standard hash.
type Hash [32]byte

// String returns the hex form of the hash.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// IsZero reports whether the hash is all zeros (used for "no previous
// block" in the genesis header).
func (h Hash) IsZero() bool { return h == Hash{} }

// DoubleSHA256 computes SHA256(SHA256(data)).
func DoubleSHA256(data []byte) Hash {
	first := sha256.Sum256(data)
	return sha256.Sum256(first[:])
}

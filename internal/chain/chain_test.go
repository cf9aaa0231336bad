package chain

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// testEntropy returns a deterministic entropy source for reproducible
// keys in tests.
func testEntropy(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func mustKey(t testing.TB, seed int64) *KeyPair {
	t.Helper()
	k, err := GenerateKey(testEntropy(seed))
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	return k
}

// fundedOutpoint returns the output of a coinbase paying 100_000 to key.
func fundedOutpoint(key *KeyPair) Outpoint {
	return Outpoint{TxID: Coinbase(1, 100_000, key.Address()).ID(), Index: 0}
}

// minedBlock returns a block carrying txs under a header mined at a
// small target.
func minedBlock(t testing.TB, txs ...*Tx) *Block {
	t.Helper()
	b := &Block{
		Header: BlockHeader{Version: 1, MerkleRoot: MerkleRoot(txs), TimeUnix: 7, TargetBits: 4},
		Txs:    txs,
	}
	if !b.Mine(1 << 20) {
		t.Fatal("mining failed")
	}
	return b
}

// spend builds a tx spending op (owned by from) paying amount to to, with
// the remainder (minus fee) back to from. Its input carries a zero 64-byte
// signature and from's public key, the size of a signed input.
func spend(t testing.TB, from *KeyPair, op Outpoint, prevValue, amount, fee Amount, to Address) *Tx {
	t.Helper()
	tx := &Tx{
		Version: 1,
		Inputs:  []TxIn{{PrevOut: op, Sig: make([]byte, 64), PubKey: from.PubKey()}},
		Outputs: []TxOut{{Value: amount, To: to}},
	}
	if change := prevValue - amount - fee; change > 0 {
		tx.Outputs = append(tx.Outputs, TxOut{Value: change, To: from.Address()})
	}
	return tx
}

func TestAddressDerivationStable(t *testing.T) {
	k := mustKey(t, 3)
	if k.Address() != PubKeyAddress(k.PubKey()) {
		t.Error("Address() differs from PubKeyAddress(PubKey())")
	}
	k2 := mustKey(t, 3)
	if k.Address() != k2.Address() {
		t.Error("same entropy produced different keys")
	}
	k3 := mustKey(t, 4)
	if k.Address() == k3.Address() {
		t.Error("different entropy produced same address")
	}
}

func TestTxSerializationRoundTrip(t *testing.T) {
	alice := mustKey(t, 5)
	bob := mustKey(t, 6)
	op := fundedOutpoint(alice)
	tx := spend(t, alice, op, 100_000, 40_000, 500, bob.Address())

	decoded, err := parseTx(tx.Bytes())
	if err != nil {
		t.Fatalf("parseTx: %v", err)
	}
	if decoded.ID() != tx.ID() {
		t.Error("round-tripped tx has different ID")
	}
	if !bytes.Equal(decoded.Bytes(), tx.Bytes()) {
		t.Error("round-tripped serialization differs")
	}
}

func TestCheckWellFormed(t *testing.T) {
	addr := mustKey(t, 9).Address()
	tests := []struct {
		name string
		tx   *Tx
		ok   bool
	}{
		{"no outputs", &Tx{Inputs: []TxIn{{}}}, false},
		{"zero value", &Tx{Outputs: []TxOut{{Value: 0, To: addr}}}, false},
		{"negative value", &Tx{Outputs: []TxOut{{Value: -5, To: addr}}}, false},
		{"over max", &Tx{Outputs: []TxOut{{Value: MaxAmount + 1, To: addr}}}, false},
		{"sum over max", &Tx{Outputs: []TxOut{
			{Value: MaxAmount, To: addr}, {Value: MaxAmount, To: addr},
		}}, false},
		{"dup inputs", &Tx{
			Inputs:  []TxIn{{PrevOut: Outpoint{Index: 1}}, {PrevOut: Outpoint{Index: 1}}},
			Outputs: []TxOut{{Value: 1, To: addr}},
		}, false},
		{"valid", &Tx{Outputs: []TxOut{{Value: 1, To: addr}}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.tx.CheckWellFormed()
			if (err == nil) != tt.ok {
				t.Errorf("CheckWellFormed = %v, ok = %v", err, tt.ok)
			}
		})
	}
}

func TestMerkleRoot(t *testing.T) {
	addr := mustKey(t, 25).Address()
	tx1 := Coinbase(1, 10, addr)
	tx2 := Coinbase(2, 20, addr)
	tx3 := Coinbase(3, 30, addr)

	if (MerkleRoot(nil) != Hash{}) {
		t.Error("empty merkle root not zero")
	}
	if MerkleRoot([]*Tx{tx1}) != tx1.ID() {
		t.Error("single-tx merkle root should be the tx ID")
	}
	r12 := MerkleRoot([]*Tx{tx1, tx2})
	r21 := MerkleRoot([]*Tx{tx2, tx1})
	if r12 == r21 {
		t.Error("merkle root insensitive to order")
	}
	// Odd count duplicates the last: {1,2,3} == {1,2,3,3}.
	if MerkleRoot([]*Tx{tx1, tx2, tx3}) != MerkleRoot([]*Tx{tx1, tx2, tx3, tx3}) {
		t.Error("odd-level duplication rule violated")
	}
}

func TestBlockSerializationRoundTrip(t *testing.T) {
	alice := mustKey(t, 29)
	op := fundedOutpoint(alice)
	tx := spend(t, alice, op, 100_000, 10_000, 100, alice.Address())
	blk := minedBlock(t, Coinbase(1, 50_100, alice.Address()), tx)
	decoded, err := parseBlock(blk.Bytes())
	if err != nil {
		t.Fatalf("parseBlock: %v", err)
	}
	if decoded.Header.Hash() != blk.Header.Hash() {
		t.Error("round-tripped header hash differs")
	}
	if len(decoded.Txs) != len(blk.Txs) {
		t.Fatalf("tx count = %d, want %d", len(decoded.Txs), len(blk.Txs))
	}
	for i := range decoded.Txs {
		if decoded.Txs[i].ID() != blk.Txs[i].ID() {
			t.Errorf("tx %d ID differs after round trip", i)
		}
	}
	if _, err := parseBlock(blk.Bytes()[:30]); err == nil {
		t.Error("truncated block accepted")
	}
}

func TestVerifyCostModel(t *testing.T) {
	m := DefaultVerifyCost()
	addr := mustKey(t, 30).Address()
	small := Coinbase(1, 10, addr)
	big := &Tx{
		Version: 1,
		Inputs:  make([]TxIn, 10),
		Outputs: []TxOut{{Value: 1, To: addr}},
	}
	for i := range big.Inputs {
		big.Inputs[i] = TxIn{PrevOut: Outpoint{Index: uint32(i)}, Sig: make([]byte, 64), PubKey: make([]byte, 65)}
	}
	cSmall := m.TxCost(small)
	cBig := m.TxCost(big)
	if cBig <= cSmall {
		t.Errorf("10-input cost %v <= 0-input cost %v", cBig, cSmall)
	}
	// Block cost is the sum of tx costs.
	blk := &Block{Txs: []*Tx{small, big}}
	if got, want := m.BlockCost(blk), cSmall+cBig; got != want {
		t.Errorf("BlockCost = %v, want %v", got, want)
	}
}

func TestLeadingZeroBits(t *testing.T) {
	var h Hash
	if leadingZeroBits(h) != 256 {
		t.Error("all-zero hash should have 256 leading zeros")
	}
	h[0] = 0x80
	if leadingZeroBits(h) != 0 {
		t.Error("0x80 first byte should have 0 leading zeros")
	}
	h[0] = 0x01
	if leadingZeroBits(h) != 7 {
		t.Error("0x01 first byte should have 7 leading zeros")
	}
	h[0] = 0
	h[1] = 0x10
	if leadingZeroBits(h) != 11 {
		t.Error("0x00 0x10 should have 11 leading zeros")
	}
}

// Property: tx serialization round-trips for arbitrary well-formed shapes.
func TestPropertyTxRoundTrip(t *testing.T) {
	f := func(nIn, nOut uint8, sigLen uint8) bool {
		tx := &Tx{Version: 1}
		for i := 0; i < int(nIn%8); i++ {
			tx.Inputs = append(tx.Inputs, TxIn{
				PrevOut: Outpoint{TxID: DoubleSHA256([]byte{byte(i)}), Index: uint32(i)},
				Sig:     bytes.Repeat([]byte{0xAB}, int(sigLen)),
				PubKey:  bytes.Repeat([]byte{0xCD}, int(sigLen/2)),
			})
		}
		n := int(nOut%8) + 1
		for i := 0; i < n; i++ {
			tx.Outputs = append(tx.Outputs, TxOut{Value: Amount(i + 1), To: Address{byte(i)}})
		}
		decoded, err := parseTx(tx.Bytes())
		if err != nil {
			return false
		}
		return decoded.ID() == tx.ID()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMerkleRoot1000(b *testing.B) {
	addr := mustKey(b, 41).Address()
	txs := make([]*Tx, 1000)
	for i := range txs {
		txs[i] = Coinbase(uint64(i), Amount(i+1), addr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MerkleRoot(txs)
	}
}

func TestCoinbaseDistinctIDsByHeight(t *testing.T) {
	addr := mustKey(t, 62).Address()
	a := Coinbase(1, 50, addr)
	b := Coinbase(2, 50, addr)
	if a.ID() == b.ID() {
		t.Error("coinbases at different heights share an ID")
	}
}

func TestHashStringAndIsZero(t *testing.T) {
	var z Hash
	if !z.IsZero() {
		t.Error("zero hash not IsZero")
	}
	h := DoubleSHA256([]byte("x"))
	if h.IsZero() {
		t.Error("non-zero hash IsZero")
	}
	if len(h.String()) != 64 {
		t.Errorf("hex length = %d", len(h.String()))
	}
	op := Outpoint{TxID: h, Index: 3}
	if op.String() == "" {
		t.Error("outpoint string empty")
	}
}

// TestSizeMatchesBytes pins the arithmetic Tx.Size and Block.Size to the
// actual serialization: the simulator charges link bandwidth through
// Size on every delivery, so drift would skew the latency model.
func TestSizeMatchesBytes(t *testing.T) {
	alice, bob := mustKey(t, 1), mustKey(t, 2)
	op := fundedOutpoint(alice)
	signed := spend(t, alice, op, 100_000, 1200, 10, bob.Address())
	cb := Coinbase(7, 5000, alice.Address())
	for name, tx := range map[string]*Tx{"signed": signed, "coinbase": cb} {
		if got, want := tx.Size(), len(tx.Bytes()); got != want {
			t.Errorf("%s tx: Size() = %d, len(Bytes()) = %d", name, got, want)
		}
	}
	b := minedBlock(t, cb, signed)
	if got, want := b.Size(), len(b.Bytes()); got != want {
		t.Errorf("block: Size() = %d, len(Bytes()) = %d", got, want)
	}
}

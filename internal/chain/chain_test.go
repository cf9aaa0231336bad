package chain

import (
	"bytes"
	"errors"
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

// fundedLedger returns a UTXO set holding one coinbase output of value
// 100_000 owned by key, plus the outpoint.
func fundedLedger(t testing.TB, key *KeyPair) (*UTXOSet, Outpoint) {
	t.Helper()
	u := NewUTXOSet()
	cb := Coinbase(1, 100_000, key.Address())
	if err := u.AddCoinbase(cb); err != nil {
		t.Fatalf("AddCoinbase: %v", err)
	}
	return u, Outpoint{TxID: cb.ID(), Index: 0}
}

// spend builds and signs a tx spending op (owned by from) paying amount to
// to, with the remainder (minus fee) back to from.
func spend(t testing.TB, from *KeyPair, op Outpoint, prevValue, amount, fee Amount, to Address) *Tx {
	t.Helper()
	tx := &Tx{
		Version: 1,
		Inputs:  []TxIn{{PrevOut: op}},
		Outputs: []TxOut{{Value: amount, To: to}},
	}
	if change := prevValue - amount - fee; change > 0 {
		tx.Outputs = append(tx.Outputs, TxOut{Value: change, To: from.Address()})
	}
	if err := tx.SignAllInputs([]*KeyPair{from}); err != nil {
		t.Fatalf("SignAllInputs: %v", err)
	}
	return tx
}

func TestKeyRoundTrip(t *testing.T) {
	k := mustKey(t, 1)
	digest := DoubleSHA256([]byte("hello"))
	sig, err := k.Sign([32]byte(digest))
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != 64 {
		t.Fatalf("sig length %d, want 64", len(sig))
	}
	if !VerifySignature(k.PubKey(), [32]byte(digest), sig) {
		t.Error("valid signature rejected")
	}
	other := DoubleSHA256([]byte("tampered"))
	if VerifySignature(k.PubKey(), [32]byte(other), sig) {
		t.Error("signature verified against wrong digest")
	}
	sig[10] ^= 0xFF
	if VerifySignature(k.PubKey(), [32]byte(digest), sig) {
		t.Error("corrupted signature verified")
	}
}

func TestVerifySignatureMalformedInputs(t *testing.T) {
	k := mustKey(t, 2)
	digest := [32]byte(DoubleSHA256([]byte("x")))
	if VerifySignature(k.PubKey(), digest, []byte("short")) {
		t.Error("short signature accepted")
	}
	if VerifySignature([]byte{0x04, 1, 2}, digest, make([]byte, 64)) {
		t.Error("garbage pubkey accepted")
	}
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
	u, op := fundedLedger(t, alice)
	_ = u
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

func TestSigHashExcludesSignatures(t *testing.T) {
	alice := mustKey(t, 8)
	_, op := fundedLedger(t, alice)
	tx := spend(t, alice, op, 100_000, 1000, 0, alice.Address())
	before := tx.SigHash()
	tx.Inputs[0].Sig = []byte("different")
	if tx.SigHash() != before {
		t.Error("SigHash depends on signature bytes")
	}
	tx.Outputs[0].Value++
	if tx.SigHash() == before {
		t.Error("SigHash ignores output mutation")
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

func TestUTXOValidateAndApply(t *testing.T) {
	alice := mustKey(t, 10)
	bob := mustKey(t, 11)
	u, op := fundedLedger(t, alice)

	tx := spend(t, alice, op, 100_000, 60_000, 1000, bob.Address())
	if err := u.ValidateTx(tx); err != nil {
		t.Fatalf("ValidateTx: %v", err)
	}
	if err := u.ApplyTx(tx); err != nil {
		t.Fatalf("ApplyTx: %v", err)
	}
	if got := u.BalanceOf(bob.Address()); got != 60_000 {
		t.Errorf("bob balance = %d, want 60000", got)
	}
	if got := u.BalanceOf(alice.Address()); got != 39_000 {
		t.Errorf("alice change = %d, want 39000", got)
	}
	// Replay must fail: the outpoint is spent.
	if err := u.ValidateTx(tx); !errors.Is(err, ErrMissingInput) {
		t.Errorf("replay error = %v, want ErrMissingInput", err)
	}
}

func TestUTXORejectsWrongOwner(t *testing.T) {
	alice := mustKey(t, 12)
	mallory := mustKey(t, 13)
	u, op := fundedLedger(t, alice)
	// Mallory signs with her own key trying to spend Alice's output.
	tx := spend(t, mallory, op, 100_000, 1000, 0, mallory.Address())
	if err := u.ValidateTx(tx); !errors.Is(err, ErrWrongOwner) {
		t.Errorf("error = %v, want ErrWrongOwner", err)
	}
}

func TestUTXORejectsBadSignature(t *testing.T) {
	alice := mustKey(t, 14)
	u, op := fundedLedger(t, alice)
	tx := spend(t, alice, op, 100_000, 1000, 0, alice.Address())
	tx.Inputs[0].Sig[0] ^= 0xFF
	if err := u.ValidateTx(tx); !errors.Is(err, ErrBadSignature) {
		t.Errorf("error = %v, want ErrBadSignature", err)
	}
}

func TestUTXORejectsOverspend(t *testing.T) {
	alice := mustKey(t, 15)
	u, op := fundedLedger(t, alice)
	tx := &Tx{
		Version: 1,
		Inputs:  []TxIn{{PrevOut: op}},
		Outputs: []TxOut{{Value: 200_000, To: alice.Address()}}, // > funded 100k
	}
	if err := tx.SignAllInputs([]*KeyPair{alice}); err != nil {
		t.Fatal(err)
	}
	if err := u.ValidateTx(tx); !errors.Is(err, ErrValueOverflow) {
		t.Errorf("error = %v, want ErrValueOverflow", err)
	}
}

func TestUTXOFeeAndClone(t *testing.T) {
	alice := mustKey(t, 16)
	u, op := fundedLedger(t, alice)
	tx := spend(t, alice, op, 100_000, 70_000, 2_500, alice.Address())
	fee, err := u.Fee(tx)
	if err != nil {
		t.Fatal(err)
	}
	if fee != 2_500 {
		t.Errorf("fee = %d, want 2500", fee)
	}
	clone := u.Clone()
	if err := clone.ApplyTx(tx); err != nil {
		t.Fatal(err)
	}
	// Original untouched.
	if _, ok := u.Lookup(op); !ok {
		t.Error("Clone shares state with original")
	}
}

func TestMempoolDoubleSpendConflict(t *testing.T) {
	alice := mustKey(t, 17)
	bob := mustKey(t, 18)
	carol := mustKey(t, 19)
	u, op := fundedLedger(t, alice)
	mp := NewMempool(u, 0)

	txBob := spend(t, alice, op, 100_000, 50_000, 100, bob.Address())
	txCarol := spend(t, alice, op, 100_000, 50_000, 200, carol.Address())

	if err := mp.Add(txBob); err != nil {
		t.Fatalf("first spend rejected: %v", err)
	}
	// The double spend must be detected, not admitted.
	err := mp.Add(txCarol)
	if !errors.Is(err, ErrMempoolConflict) {
		t.Fatalf("double spend error = %v, want ErrMempoolConflict", err)
	}
	if conflict, ok := mp.Conflicts(txCarol); !ok || conflict != txBob.ID() {
		t.Error("Conflicts did not identify the resident double spend")
	}
}

func TestMempoolIdempotentAdd(t *testing.T) {
	alice := mustKey(t, 20)
	u, op := fundedLedger(t, alice)
	mp := NewMempool(u, 0)
	tx := spend(t, alice, op, 100_000, 1000, 10, alice.Address())
	if err := mp.Add(tx); err != nil {
		t.Fatal(err)
	}
	if err := mp.Add(tx); err != nil {
		t.Errorf("re-adding same tx errored: %v", err)
	}
	if mp.Len() != 1 {
		t.Errorf("Len = %d, want 1", mp.Len())
	}
}

func TestMempoolEvictionByFeeRate(t *testing.T) {
	alice := mustKey(t, 21)
	u := NewUTXOSet()
	// Fund three outputs.
	var ops []Outpoint
	for i := 0; i < 3; i++ {
		cb := Coinbase(uint64(i), 100_000, alice.Address())
		if err := u.AddCoinbase(cb); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, Outpoint{TxID: cb.ID(), Index: 0})
	}
	mp := NewMempool(u, 2)
	low := spend(t, alice, ops[0], 100_000, 99_990, 10, alice.Address())
	mid := spend(t, alice, ops[1], 100_000, 99_000, 1_000, alice.Address())
	high := spend(t, alice, ops[2], 100_000, 90_000, 10_000, alice.Address())

	if err := mp.Add(low); err != nil {
		t.Fatal(err)
	}
	if err := mp.Add(mid); err != nil {
		t.Fatal(err)
	}
	// Pool full; high fee evicts low.
	if err := mp.Add(high); err != nil {
		t.Fatalf("high-fee add: %v", err)
	}
	if mp.Has(low.ID()) {
		t.Error("low-fee tx not evicted")
	}
	if !mp.Has(high.ID()) || !mp.Has(mid.ID()) {
		t.Error("expected residents missing")
	}
	// And a sub-floor fee is refused outright.
	refund := spend(t, alice, ops[0], 100_000, 100_000, 0, alice.Address())
	if err := mp.Add(refund); !errors.Is(err, ErrMempoolFull) {
		// ops[0] was released when low was evicted, so only capacity blocks it.
		t.Errorf("error = %v, want ErrMempoolFull", err)
	}
}

func TestMempoolRemoveConfirmedReleasesClaims(t *testing.T) {
	alice := mustKey(t, 22)
	bob := mustKey(t, 23)
	u, op := fundedLedger(t, alice)
	mp := NewMempool(u, 0)
	tx := spend(t, alice, op, 100_000, 50_000, 100, bob.Address())
	if err := mp.Add(tx); err != nil {
		t.Fatal(err)
	}
	mp.RemoveConfirmed([]*Tx{tx})
	if mp.Len() != 0 {
		t.Error("confirmed tx still resident")
	}
	// The outpoint claim must be released so a (now hypothetical)
	// conflicting spend is judged against the UTXO set, not stale claims.
	if _, ok := mp.Conflicts(tx); ok {
		t.Error("claim not released after confirmation")
	}
}

func TestMempoolPickForBlockOrdersByFeeRate(t *testing.T) {
	alice := mustKey(t, 24)
	u := NewUTXOSet()
	var ops []Outpoint
	for i := 0; i < 3; i++ {
		cb := Coinbase(uint64(i), 100_000, alice.Address())
		if err := u.AddCoinbase(cb); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, Outpoint{TxID: cb.ID(), Index: 0})
	}
	mp := NewMempool(u, 0)
	fees := []Amount{500, 5_000, 50}
	var txs []*Tx
	for i, f := range fees {
		tx := spend(t, alice, ops[i], 100_000, 100_000-f, f, alice.Address())
		txs = append(txs, tx)
		if err := mp.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	picked := mp.PickForBlock(2)
	if len(picked) != 2 {
		t.Fatalf("picked %d, want 2", len(picked))
	}
	if picked[0].ID() != txs[1].ID() || picked[1].ID() != txs[0].ID() {
		t.Error("PickForBlock not ordered by fee rate")
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

func TestChainMineAndExtend(t *testing.T) {
	alice := mustKey(t, 26)
	bob := mustKey(t, 27)
	c, err := NewChain(ChainConfig{Subsidy: 50_000, TargetBits: 8, GenesisTo: alice.Address()})
	if err != nil {
		t.Fatal(err)
	}
	if c.Height() != 0 {
		t.Fatalf("height = %d, want 0", c.Height())
	}
	if got := c.UTXO().BalanceOf(alice.Address()); got != 50_000 {
		t.Fatalf("genesis balance = %d, want 50000", got)
	}

	// Spend the genesis coinbase in block 1.
	ops := c.UTXO().OutpointsOf(alice.Address())
	if len(ops) != 1 {
		t.Fatal("expected one genesis outpoint")
	}
	tx := spend(t, alice, ops[0], 50_000, 20_000, 1_000, bob.Address())
	blk, err := c.NewBlockTemplate([]*Tx{tx}, bob.Address(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !blk.Mine(1 << 22) {
		t.Fatal("failed to mine block at 8 bits")
	}
	if err := c.AddBlock(blk); err != nil {
		t.Fatalf("AddBlock: %v", err)
	}
	if c.Height() != 1 {
		t.Errorf("height = %d, want 1", c.Height())
	}
	// Coinbase pays subsidy + fee.
	wantMiner := Amount(50_000 + 1_000 + 20_000) // coinbase + payment output
	if got := c.UTXO().BalanceOf(bob.Address()); got != wantMiner {
		t.Errorf("miner balance = %d, want %d", got, wantMiner)
	}
	if !c.HasBlock(blk.Header.Hash()) {
		t.Error("chain does not index new block")
	}
}

func TestChainRejectsInvalidBlocks(t *testing.T) {
	alice := mustKey(t, 28)
	c, err := NewChain(ChainConfig{Subsidy: 50_000, TargetBits: 8, GenesisTo: alice.Address()})
	if err != nil {
		t.Fatal(err)
	}
	mkBlock := func(mutate func(*Block)) *Block {
		b, err := c.NewBlockTemplate(nil, alice.Address(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !b.Mine(1 << 22) {
			t.Fatal("mining failed")
		}
		if mutate != nil {
			mutate(b)
		}
		return b
	}

	if err := c.AddBlock(mkBlock(func(b *Block) { b.Header.PrevHash = Hash{1} })); err == nil {
		t.Error("block with wrong prev accepted")
	}
	if err := c.AddBlock(mkBlock(func(b *Block) { b.Header.Nonce = 0xDEAD; b.Header.TimeUnix++ })); err == nil {
		t.Error("block without PoW accepted")
	}
	if err := c.AddBlock(mkBlock(func(b *Block) { b.Txs = append(b.Txs, Coinbase(9, 1, alice.Address())) })); err == nil {
		t.Error("block with merkle mismatch accepted")
	}
	greedy := mkBlock(nil)
	greedy.Txs[0].Outputs[0].Value = 60_000 // overpay coinbase
	greedy.Header.MerkleRoot = MerkleRoot(greedy.Txs)
	if !greedy.Mine(1 << 22) {
		t.Fatal("re-mining failed")
	}
	if err := c.AddBlock(greedy); err == nil {
		t.Error("overpaying coinbase accepted")
	}
	// A valid block still works after all the rejections.
	if err := c.AddBlock(mkBlock(nil)); err != nil {
		t.Errorf("valid block rejected after invalid attempts: %v", err)
	}
}

func TestBlockSerializationRoundTrip(t *testing.T) {
	alice := mustKey(t, 29)
	c, err := NewChain(ChainConfig{Subsidy: 50_000, TargetBits: 4, GenesisTo: alice.Address()})
	if err != nil {
		t.Fatal(err)
	}
	ops := c.UTXO().OutpointsOf(alice.Address())
	tx := spend(t, alice, ops[0], 50_000, 10_000, 100, alice.Address())
	blk, err := c.NewBlockTemplate([]*Tx{tx}, alice.Address(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !blk.Mine(1 << 20) {
		t.Fatal("mining failed")
	}
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
	cSmall := m.TxCost(small, 1000)
	cBig := m.TxCost(big, 1000)
	if cBig <= cSmall {
		t.Errorf("10-input cost %v <= 0-input cost %v", cBig, cSmall)
	}
	// Ledger growth increases cost.
	if m.TxCost(small, 1<<20) <= m.TxCost(small, 1) {
		t.Error("cost does not grow with ledger size")
	}
	// Block cost is the sum of tx costs.
	blk := &Block{Txs: []*Tx{small, big}}
	if got, want := m.BlockCost(blk, 1000), cSmall+cBig; got != want {
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

// Property: any tx that validates applies, and after ApplyTx its inputs
// are gone and outputs present.
func TestPropertyApplyConservesOutpoints(t *testing.T) {
	alice := mustKey(t, 31)
	f := func(pay uint16, fee uint8) bool {
		u, op := fundedLedger(t, alice)
		amount := Amount(pay)%90_000 + 1
		tx := spend(t, alice, op, 100_000, amount, Amount(fee), alice.Address())
		if err := u.ApplyTx(tx); err != nil {
			return false
		}
		if _, ok := u.Lookup(op); ok {
			return false // input must be consumed
		}
		id := tx.ID()
		for i := range tx.Outputs {
			if _, ok := u.Lookup(Outpoint{TxID: id, Index: uint32(i)}); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
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

func BenchmarkTxSignAndVerify(b *testing.B) {
	alice := mustKey(b, 40)
	u, op := fundedLedger(b, alice)
	tx := spend(b, alice, op, 100_000, 1000, 10, alice.Address())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := u.ValidateTx(tx); err != nil {
			b.Fatal(err)
		}
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

func TestMempoolGetAndIDs(t *testing.T) {
	alice := mustKey(t, 60)
	u, op := fundedLedger(t, alice)
	mp := NewMempool(u, 0)
	tx := spend(t, alice, op, 100_000, 500, 5, alice.Address())
	if _, ok := mp.Get(tx.ID()); ok {
		t.Error("Get on empty pool succeeded")
	}
	if err := mp.Add(tx); err != nil {
		t.Fatal(err)
	}
	got, ok := mp.Get(tx.ID())
	if !ok || got.ID() != tx.ID() {
		t.Error("Get returned wrong tx")
	}
	ids := mp.IDs()
	if len(ids) != 1 || ids[0] != tx.ID() {
		t.Errorf("IDs = %v", ids)
	}
}

func TestChainBlockAtBounds(t *testing.T) {
	alice := mustKey(t, 61)
	c, err := NewChain(ChainConfig{Subsidy: 100, TargetBits: 2, GenesisTo: alice.Address()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.BlockAt(0); !ok {
		t.Error("genesis lookup failed")
	}
	if _, ok := c.BlockAt(-1); ok {
		t.Error("negative height succeeded")
	}
	if _, ok := c.BlockAt(5); ok {
		t.Error("future height succeeded")
	}
	if c.Subsidy() != 100 || c.TargetBits() != 2 {
		t.Error("accessors wrong")
	}
}

func TestChainRejectsBadSubsidy(t *testing.T) {
	if _, err := NewChain(ChainConfig{Subsidy: 0}); err == nil {
		t.Error("zero subsidy accepted")
	}
}

func TestCoinbaseDistinctIDsByHeight(t *testing.T) {
	addr := mustKey(t, 62).Address()
	a := Coinbase(1, 50, addr)
	b := Coinbase(2, 50, addr)
	if a.ID() == b.ID() {
		t.Error("coinbases at different heights share an ID")
	}
	if !a.IsCoinbase() {
		t.Error("coinbase not recognised")
	}
}

func TestUTXOAddCoinbaseRejectsNonCoinbase(t *testing.T) {
	alice := mustKey(t, 63)
	u, op := fundedLedger(t, alice)
	tx := spend(t, alice, op, 100_000, 10, 0, alice.Address())
	if err := u.AddCoinbase(tx); err == nil {
		t.Error("non-coinbase accepted by AddCoinbase")
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
	_, op := fundedLedger(t, alice)
	signed := spend(t, alice, op, 100_000, 1200, 10, bob.Address())
	cb := Coinbase(7, 5000, alice.Address())
	for name, tx := range map[string]*Tx{"signed": signed, "coinbase": cb} {
		if got, want := tx.Size(), len(tx.Bytes()); got != want {
			t.Errorf("%s tx: Size() = %d, len(Bytes()) = %d", name, got, want)
		}
	}
	ch, err := NewChain(ChainConfig{Subsidy: 100, TargetBits: 2, GenesisTo: alice.Address()})
	if err != nil {
		t.Fatal(err)
	}
	b := ch.Tip()
	if got, want := b.Size(), len(b.Bytes()); got != want {
		t.Errorf("block: Size() = %d, len(Bytes()) = %d", got, want)
	}
}

package measure

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// roundTrip pushes a result through the wire codec and back.
func roundTrip(t *testing.T, r CampaignResult) CampaignResult {
	t.Helper()
	data, err := EncodeCampaignResult(r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeCampaignResult(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// TestCodecExactRoundTrip: a result — samples, loss count, fingerprint —
// must survive the wire bit for bit.
func TestCodecExactRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	samples := make([]time.Duration, 500)
	for i := range samples {
		samples[i] = time.Duration(r.Int63n(int64(3 * time.Second)))
	}
	// Repeated, negative and extreme samples: zero gaps, a negative first
	// sample, and the widest gap an int64 pair can have.
	samples = append(samples, samples[0], samples[1], -time.Second, math.MinInt64, math.MaxInt64)
	res := CampaignResult{
		Dist:        NewDistribution(samples),
		Lost:        1,
		Fingerprint: 0xdeadbeefcafef00d,
	}
	got := roundTrip(t, res)
	if !got.Dist.Equal(res.Dist) {
		t.Errorf("distribution changed over the wire: %v vs %v", got.Dist, res.Dist)
	}
	if got.Lost != res.Lost || got.Fingerprint != res.Fingerprint {
		t.Errorf("Lost/Fingerprint = %d/%x, want %d/%x", got.Lost, got.Fingerprint, res.Lost, res.Fingerprint)
	}
}

// TestCodecEmptyRoundTrip: the zero result must round-trip to the zero
// result (merging relies on zero-value shards being inert).
func TestCodecEmptyRoundTrip(t *testing.T) {
	got := roundTrip(t, CampaignResult{})
	if !got.Dist.Equal(Distribution{}) || got.Lost != 0 || got.Fingerprint != 0 {
		t.Errorf("zero result changed over the wire: %+v", got)
	}
}

// rawShard assembles a shard by hand: the header for fingerprint 7, then
// the given body bytes. Tests use it to write what no encoder would.
func rawShard(body ...byte) []byte {
	b := append([]byte(nil), shardMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, 7)
	return append(b, body...)
}

// uv and sv spell one varint in a hand-assembled body.
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }
func sv(v int64) []byte  { return binary.AppendVarint(nil, v) }

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// codecFixture is one small shard: the golden-bytes pin, the truncation
// sweep and the fuzz seeds share it.
func codecFixture(t testing.TB) []byte {
	t.Helper()
	shard, err := EncodeCampaignResult(CampaignResult{
		Dist:        NewDistribution([]time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Second}),
		Lost:        1,
		Fingerprint: 0xdeadbeefcafef00d,
	})
	if err != nil {
		t.Fatal(err)
	}
	return shard
}

// formatOneShards are shards of the retired format 1, as byte literals —
// nothing here can re-create them. The first is codecFixture's result as
// format 1 shipped it (distribution kind 0, then one injection's TxID,
// InjectedAt, two per-connection Δt values and one missing connection),
// the last golden bytes of that encoder. The other two carry distribution
// kind 1, the sketch form retired before it: the golden bytes that encoder
// was pinned to (n = 1002 over three buckets), and a hand-assembled one
// whose state no sketch could reach — n = 2^64-1 over three bucketed
// samples, a negative sum, min above max — which that decoder accepted.
// All three must be refused by their version, whatever their bodies say.
func formatOneShards(t testing.TB) map[string][]byte {
	t.Helper()
	shards := map[string][]byte{}
	for name, literal := range map[string]string{
		"exact shard": "42435301" + "0df0fecaefbeadde" + // magic+version, fingerprint
			"01" + "00" + "03" + "80897a" + "80897a" + "c09a9fb807" + // Lost, exact, 3 samples: first, two gaps
			"01" + "0102030000000000000000000000000000000000000000000000000000000000" + // 1 run, TxID
			"8090a9f6b802" + "02" + "03" + "80b8b872" + "06" + "80e6d1a702" + // InjectedAt, 2 deltas (ID gap, Δt)
			"01" + "05", // 1 missing connection
		"golden streaming shard": "42435301" + "0700000000000000" +
			"00" + "01" + "ea07" + "80a8858aed02" + "00" + "80e8888743" + // Lost, streaming, n, sum, min, max
			"03" + "00" + "01" + "f406" + "e807" + "9202" + "01" + // 3 buckets (index gap, count)
			"00", // no runs
		"inconsistent sketch state": "42435301" + "0700000000000000" +
			"00" + "01" + "ffffffffffffffffff01" + "01" + "12" + "02" + // Lost, streaming, n = 2^64-1, sum -1, min 9, max 1
			"02" + "00" + "01" + "9f11" + "02" + // 2 buckets: (0, 1), (2207, 2)
			"00", // no runs
	} {
		b, err := hex.DecodeString(literal)
		if err != nil {
			t.Fatal(err)
		}
		shards[name] = b
	}
	return shards
}

// TestCodecRejectsMalformedShards guards the decoder against version drift
// and against every malformed body a socket can deliver: each input here
// is one defect away from a valid shard.
func TestCodecRejectsMalformedShards(t *testing.T) {
	empty := []byte{0, 0} // Lost 0, no samples
	cases := map[string][]byte{
		"unknown magic":     append([]byte("JSON"), rawShard(empty...)[4:]...),
		"unknown version":   append([]byte{'B', 'C', 'S', shardVersion + 1}, rawShard(empty...)[4:]...),
		"sample past int64": rawShard(cat([]byte{0}, uv(2), sv(math.MaxInt64), uv(1))...),
		"padded Lost":       rawShard(0x80, 0, 0),
		"padded count":      rawShard(0, 0x80, 0),
		"padded sample":     rawShard(cat([]byte{0}, uv(1), []byte{0x82, 0})...),
		"padded gap":        rawShard(cat([]byte{0}, uv(2), sv(1), []byte{0x81, 0})...),
		"Lost past int":     rawShard(cat(uv(math.MaxUint64), uv(0))...),
		"trailing byte":     rawShard(cat(empty, []byte{0})...),
	}
	for name, data := range cases {
		if _, err := DecodeCampaignResult(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// The hand-assembled forms are sound: the same bodies minus their one
	// defect decode.
	for name, data := range map[string][]byte{
		"empty":              rawShard(empty...),
		"sample up to int64": rawShard(cat([]byte{0}, uv(2), sv(math.MaxInt64-1), uv(1))...),
		"shortest sample":    rawShard(cat([]byte{0}, uv(1), []byte{0x02})...),
		"shortest gap":       rawShard(cat([]byte{0}, uv(2), sv(1), []byte{0x01})...),
	} {
		if _, err := DecodeCampaignResult(data); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	// A format-1 shard is told which format it is, by the decoder and by the
	// header check a coordinator runs first.
	for name, data := range formatOneShards(t) {
		if _, err := DecodeCampaignResult(data); err == nil || !strings.Contains(err.Error(), "format version 1,") {
			t.Errorf("%s: decode err = %v, want one naming format version 1", name, err)
		}
		if _, err := ShardFingerprint(data); err == nil || !strings.Contains(err.Error(), "format version 1,") {
			t.Errorf("%s: header err = %v, want one naming format version 1", name, err)
		}
	}

	shard := codecFixture(t)
	for n := 0; n < len(shard); n++ {
		if _, err := DecodeCampaignResult(shard[:n]); err == nil {
			t.Errorf("shard truncated to %d of %d bytes decoded without error", n, len(shard))
		}
	}
	if _, err := DecodeCampaignResult(append(shard[:len(shard):len(shard)], 0)); err == nil {
		t.Error("shard with a trailing byte decoded without error")
	}
}

// TestDecodeRejectsHostileLengths: a couple of dozen bytes announcing 2^40
// samples must fail before the decoder allocates for the announced length —
// a shard costs memory in proportion to its bytes, never to what it
// claims.
func TestDecodeRejectsHostileLengths(t *testing.T) {
	data := append(rawShard(cat([]byte{0}, uv(1<<40))...), make([]byte, 6)...)
	if _, err := DecodeCampaignResult(data); err == nil {
		t.Errorf("%d-byte shard announcing 2^40 samples decoded without error", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(100, func() { _, _ = DecodeCampaignResult(data) })
	runtime.ReadMemStats(&after)
	// Nothing here allocates beyond the error value.
	perRun := (after.TotalAlloc - before.TotalAlloc) / 101
	if allocs > 12 || perRun > 4096 {
		t.Errorf("%v allocations, %d bytes per rejected decode", allocs, perRun)
	}
}

// TestShardGoldenBytes pins the wire form byte for byte, so a layout
// change shows up as a diff here (and must come with a shardVersion bump).
func TestShardGoldenBytes(t *testing.T) {
	const want = "42435302" + "0df0fecaefbeadde" + // magic+version, fingerprint
		"01" + "03" + "80897a" + "80897a" + "c09a9fb807" // Lost, 3 samples: first, two gaps
	if got := hex.EncodeToString(codecFixture(t)); got != want {
		t.Errorf("shard bytes changed:\n got %s\nwant %s", got, want)
	}
}

// TestMergeRejectsMismatchedFingerprints: shards from different specs
// must not blend; unstamped shards merge with anything.
func TestMergeRejectsMismatchedFingerprints(t *testing.T) {
	a := CampaignResult{Dist: NewDistribution([]time.Duration{1}), Fingerprint: 10}
	b := CampaignResult{Dist: NewDistribution([]time.Duration{2}), Fingerprint: 20}
	if _, err := MergeCampaignResults(a, b); err == nil {
		t.Fatal("merging shards with different fingerprints succeeded")
	}
	unstamped := CampaignResult{Dist: NewDistribution([]time.Duration{3})}
	merged, err := MergeCampaignResults(a, unstamped, a)
	if err != nil {
		t.Fatalf("merging stamped with unstamped shards: %v", err)
	}
	if merged.Fingerprint != a.Fingerprint {
		t.Errorf("merged fingerprint = %x, want %x", merged.Fingerprint, a.Fingerprint)
	}
	if merged.Dist.N() != 3 {
		t.Errorf("merged N = %d, want 3", merged.Dist.N())
	}
}

// FuzzDecodeCampaignResult feeds the shard decoder — what a fleet
// coordinator runs on bytes from a socket and from its spool — arbitrary
// input. It must never panic; whatever it accepts must summarise without
// panicking and must re-encode to the very bytes that were decoded, so a
// shard cannot change by being stored and re-read and no two byte strings
// are the same shard.
func FuzzDecodeCampaignResult(f *testing.F) {
	exact := codecFixture(f)
	f.Add(exact)
	f.Add(exact[:len(exact)/2])
	for _, retired := range formatOneShards(f) {
		f.Add(retired)
	}
	// A Lost varint that never terminates within 64 bits.
	f.Add(rawShard(bytes.Repeat([]byte{0xff}, 11)...))
	// The JSON shard form this codec replaced: all of it must be refused.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Dist":{"kind":"exact","samples_ns":[5,-1,5,9223372036854775807]},"Lost":-3}`))
	f.Add([]byte(`{"Dist":{"kind":"streaming","n":18446744073709551615,"sum_ns":-1,"min_ns":9,"max_ns":1,"buckets":[{"i":0,"c":1},{"i":0,"c":2}]}}`))
	f.Add([]byte(`{"Dist":{"kind":"streaming","buckets":[{"i":99999,"c":1}]}}`))
	f.Add([]byte(`{"Dist":{"kind":"sketchy"}}`))
	f.Add([]byte(`{"Dist":null,"Lost":0,"Fingerprint":7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeCampaignResult(data)
		if err != nil {
			return
		}
		_ = r.Dist.String()
		_ = r.Dist.CDF(11)
		again, err := EncodeCampaignResult(r)
		if err != nil {
			t.Fatalf("re-encoding a decoded result: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decoded shard re-encodes differently:\n%x\nthen\n%x", data, again)
		}
	})
}

package measure

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/p2p"
	"repro/internal/sim"
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

// TestCodecExactRoundTrip: an exact result — samples, per-run maps,
// fingerprint — must survive the wire bit for bit.
func TestCodecExactRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	samples := make([]time.Duration, 500)
	for i := range samples {
		samples[i] = time.Duration(r.Int63n(int64(3 * time.Second)))
	}
	res := CampaignResult{
		Dist: NewDistribution(samples),
		PerRun: []RunResult{
			{
				TxID:       chain.Hash{1, 2, 3},
				InjectedAt: sim.Time(42 * time.Second),
				Deltas: map[p2p.NodeID]time.Duration{
					3: 120 * time.Millisecond,
					9: 310 * time.Millisecond,
				},
				Missing: []p2p.NodeID{5},
			},
			{
				TxID:       chain.Hash{0xff},
				InjectedAt: sim.Time(time.Minute),
				Deltas:     map[p2p.NodeID]time.Duration{3: time.Millisecond},
			},
		},
		Lost:        1,
		Fingerprint: 0xdeadbeefcafef00d,
	}
	got := roundTrip(t, res)
	if !got.Dist.Equal(res.Dist) {
		t.Errorf("distribution changed over the wire: %v vs %v", got.Dist, res.Dist)
	}
	if !reflect.DeepEqual(got.PerRun, res.PerRun) {
		t.Errorf("per-run results changed over the wire:\n%+v\nvs\n%+v", got.PerRun, res.PerRun)
	}
	if got.Lost != res.Lost || got.Fingerprint != res.Fingerprint {
		t.Errorf("Lost/Fingerprint = %d/%x, want %d/%x", got.Lost, got.Fingerprint, res.Lost, res.Fingerprint)
	}
}

// TestCodecEmptyRoundTrip: the zero result must round-trip to the zero
// result (merging relies on zero-value shards being inert).
func TestCodecEmptyRoundTrip(t *testing.T) {
	got := roundTrip(t, CampaignResult{})
	if !got.Dist.Equal(Distribution{}) || got.Lost != 0 || got.Fingerprint != 0 || len(got.PerRun) != 0 {
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
		Dist: NewDistribution([]time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Second}),
		PerRun: []RunResult{{
			TxID:       chain.Hash{1, 2, 3},
			InjectedAt: sim.Time(42 * time.Second),
			Deltas:     map[p2p.NodeID]time.Duration{3: 120 * time.Millisecond, 9: 310 * time.Millisecond},
			Missing:    []p2p.NodeID{5},
		}},
		Lost:        1,
		Fingerprint: 0xdeadbeefcafef00d,
	})
	if err != nil {
		t.Fatal(err)
	}
	return shard
}

// retiredStreamingShards are two shards of distribution kind 1, the sketch
// form this codec once carried: the last golden bytes its encoder was
// pinned to (n = 1002 over three buckets), and a hand-assembled one whose
// state no sketch could reach — n = 2^64-1 over three bucketed samples, a
// negative sum, min above max — which that decoder accepted. Both must be
// refused as an unknown kind, whatever their bodies say.
func retiredStreamingShards(t testing.TB) map[string][]byte {
	t.Helper()
	golden, err := hex.DecodeString("42435301" + "0700000000000000" +
		"00" + "01" + "ea07" + "80a8858aed02" + "00" + "80e8888743" + // Lost, streaming, n, sum, min, max
		"03" + "00" + "01" + "f406" + "e807" + "9202" + "01" + // 3 buckets (index gap, count)
		"00") // no runs
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"golden streaming shard": golden,
		"inconsistent sketch state": rawShard(cat([]byte{0, 1}, uv(math.MaxUint64), sv(-1), sv(9), sv(1),
			uv(2), uv(0), uv(1), uv(2207), uv(2), uv(0))...),
	}
}

// TestCodecRejectsUnknownKind guards the decoder against version drift
// and against every malformed body a socket can deliver: each input here
// is one defect away from a valid shard.
func TestCodecRejectsUnknownKind(t *testing.T) {
	emptyDist := []byte{0, distKindExact, 0} // Lost 0, exact, no samples
	oneRun := func(deltas ...[]byte) []byte {
		return cat(emptyDist, uv(1), make([]byte, 32), sv(0), cat(deltas...), uv(0))
	}
	cases := map[string][]byte{
		"unknown kind byte": rawShard(0, 2, 0, 0),
		"unknown magic":     append([]byte("JSON"), rawShard(cat(emptyDist, uv(0))...)[4:]...),
		"unknown version": append([]byte{'B', 'C', 'S', shardVersion + 1},
			rawShard(cat(emptyDist, uv(0))...)[4:]...),
		"non-increasing connection IDs": rawShard(oneRun(uv(2), uv(5), sv(1), uv(0), sv(1))...),
		"sample past int64":             rawShard(cat([]byte{0, distKindExact}, uv(2), sv(math.MaxInt64), uv(1), uv(0))...),
		"trailing byte":                 rawShard(cat(emptyDist, uv(0), []byte{0})...),
	}
	for name, data := range cases {
		if _, err := DecodeCampaignResult(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// The hand-assembled forms are sound: the same bodies minus their one
	// defect decode.
	for name, data := range map[string][]byte{
		"empty":         rawShard(cat(emptyDist, uv(0))...),
		"two ascending": rawShard(oneRun(uv(2), uv(5), sv(1), uv(1), sv(1))...),
	} {
		if _, err := DecodeCampaignResult(data); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	for name, data := range retiredStreamingShards(t) {
		if _, err := DecodeCampaignResult(data); err == nil || !strings.Contains(err.Error(), "unknown distribution kind 1") {
			t.Errorf("%s: err = %v, want unknown distribution kind 1", name, err)
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

// TestDecodeRejectsHostileLengths: a few dozen bytes announcing 2^40
// samples, runs or deltas must fail before the decoder allocates for the
// announced length — a shard costs memory in proportion to its bytes,
// never to what it claims.
func TestDecodeRejectsHostileLengths(t *testing.T) {
	const huge = 1 << 40
	pad := func(b []byte, n int) []byte { return append(b, make([]byte, n-len(b))...) }
	emptyDist := []byte{0, distKindExact, 0}
	cases := map[string][]byte{
		"samples": pad(rawShard(cat([]byte{0, distKindExact}, uv(huge))...), 24),
		"runs":    pad(rawShard(cat(emptyDist, uv(huge))...), 24),
		"deltas":  pad(rawShard(cat(emptyDist, uv(1), make([]byte, 32), sv(0), uv(huge))...), 64),
		"missing": pad(rawShard(cat(emptyDist, uv(1), make([]byte, 32), sv(0), uv(0), uv(huge))...), 64),
	}
	for name, data := range cases {
		if _, err := DecodeCampaignResult(data); err == nil {
			t.Errorf("%s: %d-byte shard announcing 2^40 elements decoded without error", name, len(data))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(100, func() { _, _ = DecodeCampaignResult(data) })
		runtime.ReadMemStats(&after)
		// Nothing here allocates beyond the error value.
		perRun := (after.TotalAlloc - before.TotalAlloc) / 101
		if allocs > 12 || perRun > 4096 {
			t.Errorf("%s: %v allocations, %d bytes per rejected decode", name, allocs, perRun)
		}
	}
}

// TestShardGoldenBytes pins the wire form byte for byte, so a layout
// change shows up as a diff here (and must come with a shardVersion bump).
func TestShardGoldenBytes(t *testing.T) {
	const (
		wantExact = "42435301" + "0df0fecaefbeadde" + // magic+version, fingerprint
			"01" + "00" + "03" + "80897a" + "80897a" + "c09a9fb807" + // Lost, exact, 3 samples: first, two gaps
			"01" + "0102030000000000000000000000000000000000000000000000000000000000" + // 1 run, TxID
			"8090a9f6b802" + "02" + "03" + "80b8b872" + "06" + "80e6d1a702" + // InjectedAt, 2 deltas (ID gap, Δt)
			"01" + "05" // 1 missing connection
	)
	if got := hex.EncodeToString(codecFixture(t)); got != wantExact {
		t.Errorf("exact shard bytes changed:\n got %s\nwant %s", got, wantExact)
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
// panicking and must re-encode to a fixed point: encode(decode(x)) decodes
// and encodes to the same bytes again, so a shard cannot change by being
// stored and re-read.
func FuzzDecodeCampaignResult(f *testing.F) {
	exact := codecFixture(f)
	f.Add(exact)
	f.Add(exact[:len(exact)/2])
	for _, retired := range retiredStreamingShards(f) {
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
	f.Add([]byte(`{"Dist":null,"PerRun":[{"Deltas":{"-1":1}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeCampaignResult(data)
		if err != nil {
			return
		}
		if data[0] == '{' {
			t.Fatalf("a JSON document decoded as a shard: %s", data)
		}
		_ = r.Dist.String()
		_ = r.Dist.CDF(11)
		first, err := EncodeCampaignResult(r)
		if err != nil {
			t.Fatalf("re-encoding a decoded result: %v", err)
		}
		again, err := DecodeCampaignResult(first)
		if err != nil {
			t.Fatalf("decoding a re-encoded result: %v\n%x", err, first)
		}
		second, err := EncodeCampaignResult(again)
		if err != nil {
			t.Fatalf("encoding it a second time: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("no fixed point:\n%x\nthen\n%x", first, second)
		}
	})
}

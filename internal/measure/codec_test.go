package measure

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
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

// TestCodecStreamingRoundTrip: a sketch-backed result must ship its
// integer state exactly, including the zero bucket, the extremes, and a
// heavy tail, and come back Equal.
func TestCodecStreamingRoundTrip(t *testing.T) {
	s := NewStreamingDistribution()
	s.Add(0)
	s.Add(1)
	s.AddN(17*time.Millisecond, 12345)
	s.Add(2 * time.Hour)
	s.Add(time.Duration(1) << 60)
	res := CampaignResult{Dist: s.Dist(), Lost: 3, Fingerprint: 99}
	got := roundTrip(t, res)
	if !got.Dist.Equal(res.Dist) {
		t.Errorf("sketch changed over the wire: %v vs %v", got.Dist, res.Dist)
	}
	if !got.Dist.Streaming() {
		t.Error("streaming distribution came back exact")
	}
	if got.Lost != res.Lost || got.Fingerprint != res.Fingerprint {
		t.Errorf("Lost/Fingerprint lost in transit")
	}
	// Compact shipping is the point: 5 distinct values must not serialize
	// the dense bucket array.
	data, err := EncodeCampaignResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 1024 {
		t.Errorf("streaming shard serialized to %d bytes; sparse encoding expected", len(data))
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

// TestCodecRejectsUnknownKind guards the decoder against version drift.
func TestCodecRejectsUnknownKind(t *testing.T) {
	var d Distribution
	if err := json.Unmarshal([]byte(`{"kind":"tdigest"}`), &d); err == nil {
		t.Error("unknown distribution kind decoded without error")
	}
	if err := json.Unmarshal([]byte(`{"kind":"streaming","buckets":[{"i":99999,"c":1}]}`), &d); err == nil {
		t.Error("out-of-range bucket index decoded without error")
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
// panicking, however inconsistent the sketch state it was handed, and must
// re-encode to a fixed point: encode(decode(x)) decodes and encodes to the
// same bytes again, so a shard cannot change by being stored and re-read.
func FuzzDecodeCampaignResult(f *testing.F) {
	exact, err := EncodeCampaignResult(CampaignResult{
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
		f.Fatal(err)
	}
	s := NewStreamingDistribution()
	s.Add(0)
	s.AddN(40*time.Millisecond, 1000)
	s.Add(9 * time.Second)
	streaming, err := EncodeCampaignResult(CampaignResult{Dist: s.Dist(), Fingerprint: 7})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(exact)
	f.Add(streaming)
	f.Add(exact[:len(exact)/2])
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
		_ = r.Dist.String()
		_ = r.Dist.CDF(11)
		first, err := EncodeCampaignResult(r)
		if err != nil {
			t.Fatalf("re-encoding a decoded result: %v", err)
		}
		again, err := DecodeCampaignResult(first)
		if err != nil {
			t.Fatalf("decoding a re-encoded result: %v\n%s", err, first)
		}
		second, err := EncodeCampaignResult(again)
		if err != nil {
			t.Fatalf("encoding it a second time: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("no fixed point:\n%s\nthen\n%s", first, second)
		}
	})
}

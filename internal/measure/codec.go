// Binary codec for campaign results: the one serialization the fleet
// subsystem ships over the wire and keeps in its spool. Layout, all
// integers little-endian or (u)varint as encoding/binary defines them:
//
//	offset 0   4 bytes   magic "BCS" + format version (shardVersion)
//	offset 4   8 bytes   Fingerprint, little-endian
//	           uvarint   Lost
//	           1 byte    distribution kind, always distKindExact (kind 1
//	                     is retired; a shard carrying it is refused)
//	           uvarint   sample count n; if n > 0: varint first (smallest)
//	                     sample, then n-1 uvarint gaps between consecutive
//	                     sorted samples
//	           uvarint   PerRun count; per run: 32 raw bytes TxID, varint
//	                     InjectedAt, uvarint delta count, per delta in
//	                     ascending connection-ID order: uvarint ID gap (the
//	                     first is the ID itself, later ones are ID - previous
//	                     ID, never 0), varint Δt; uvarint Missing count, per
//	                     entry: uvarint ID, in recorded order
//
// The header is fixed so that a coordinator checks a shard's fingerprint
// with ShardFingerprint — a slice index — without decoding the body.
//
// Round-trip contract: decode(encode(r)) is bit-identical to r — the
// property the fleet's "merged outcome equals a single-machine sweep"
// guarantee rests on. Distributions ship their sorted samples and rebuild
// through newSortedDistribution (same samples, same summation order, same
// float bits as NewDistribution). A zero-length Missing decodes to nil and
// Deltas to a non-nil map, which is what MeasureOnce produces.
//
// The decoder runs on bytes from a socket: every announced length is
// checked against the bytes that remain before anything is allocated, so
// memory stays proportional to the input, and trailing bytes are an
// error.
package measure

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/p2p"
)

// shardVersion is the last byte of the header's magic; bump it on any
// layout change so skewed binaries reject each other's shards.
const shardVersion = 1

// shardHeaderLen is the fixed prefix: magic+version, then Fingerprint.
const shardHeaderLen = 12

var shardMagic = [4]byte{'B', 'C', 'S', shardVersion}

// distKindExact tags the wire form of a Distribution.
const distKindExact = 0

// Smallest wire size of one element of each announced list, the divisor
// of the length checks: a run is TxID + InjectedAt + two counts, a delta
// is two varints, a sample gap or missing ID is one.
const (
	minRunBytes  = 32 + 3
	minPairBytes = 2
	minGapBytes  = 1
)

var errShardTruncated = errors.New("truncated")

// ShardFingerprint reads the fingerprint out of an encoded shard's fixed
// header, checking only the magic and version — O(1) however large the
// shard.
func ShardFingerprint(data []byte) (uint64, error) {
	print, err := shardHeader(data)
	if err != nil {
		return 0, fmt.Errorf("measure: decode campaign result: %w", err)
	}
	return print, nil
}

func shardHeader(data []byte) (uint64, error) {
	if len(data) < shardHeaderLen {
		return 0, fmt.Errorf("%d bytes is shorter than the shard header", len(data))
	}
	if [4]byte(data[:4]) != shardMagic {
		return 0, fmt.Errorf("unknown shard magic/version % x", data[:4])
	}
	return binary.LittleEndian.Uint64(data[4:shardHeaderLen]), nil
}

// EncodeCampaignResult serializes a shard result for shipping.
func EncodeCampaignResult(r CampaignResult) ([]byte, error) {
	if r.Lost < 0 {
		return nil, fmt.Errorf("measure: encode campaign result: negative Lost %d", r.Lost)
	}
	size := shardHeaderLen + 3*binary.MaxVarintLen64 + 4*len(r.Dist.sorted)
	for i := range r.PerRun {
		size += minRunBytes + 7*len(r.PerRun[i].Deltas) + 2*len(r.PerRun[i].Missing)
	}
	b := make([]byte, shardHeaderLen, size)
	copy(b, shardMagic[:])
	binary.LittleEndian.PutUint64(b[4:], r.Fingerprint)
	b = binary.AppendUvarint(b, uint64(r.Lost))

	b = append(b, distKindExact)
	b = binary.AppendUvarint(b, uint64(len(r.Dist.sorted)))
	for i, v := range r.Dist.sorted {
		if i == 0 {
			b = binary.AppendVarint(b, int64(v))
			continue
		}
		// Wrapping subtraction: the true gap of two int64s always fits a
		// uint64.
		b = binary.AppendUvarint(b, uint64(v)-uint64(r.Dist.sorted[i-1]))
	}

	b = binary.AppendUvarint(b, uint64(len(r.PerRun)))
	var ids []p2p.NodeID
	for i := range r.PerRun {
		run := &r.PerRun[i]
		b = append(b, run.TxID[:]...)
		b = binary.AppendVarint(b, int64(run.InjectedAt))
		b = binary.AppendUvarint(b, uint64(len(run.Deltas)))
		ids = appendSortedIDs(ids[:0], run.Deltas)
		prev := p2p.NodeID(0)
		for _, id := range ids {
			b = binary.AppendUvarint(b, uint64(id-prev))
			b = binary.AppendVarint(b, int64(run.Deltas[id]))
			prev = id
		}
		b = binary.AppendUvarint(b, uint64(len(run.Missing)))
		for _, id := range run.Missing {
			b = binary.AppendUvarint(b, uint64(id))
		}
	}
	// The size above is an estimate with slack; a shard outlives its
	// encoding (commit retries, whatever stores it for replay), so what
	// is handed back holds exactly its bytes.
	return bytes.Clone(b), nil
}

// DecodeCampaignResult parses a serialized shard back into a result that
// is bit-identical to the one encoded.
func DecodeCampaignResult(data []byte) (CampaignResult, error) {
	r, err := decodeCampaignResult(data)
	if err != nil {
		return CampaignResult{}, fmt.Errorf("measure: decode campaign result: %w", err)
	}
	return r, nil
}

// shardReader is a cursor over a shard's body. Its first failure sticks
// in err and every later read returns zero, so the decoder checks once
// per section instead of once per varint.
type shardReader struct {
	buf []byte
	err error
}

func (r *shardReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// bytes consumes the next n raw bytes, or fails and returns nil.
func (r *shardReader) bytes(n int) []byte {
	if len(r.buf) < n {
		r.fail(errShardTruncated)
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *shardReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(varintError(n))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *shardReader) varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail(varintError(n))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func varintError(n int) error {
	if n == 0 {
		return errShardTruncated
	}
	return errors.New("varint overflows 64 bits")
}

// count reads an announced list length and refuses it unless that many
// elements of at least minBytes each could still follow.
func (r *shardReader) count(what string, minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.buf)/minBytes) {
		r.fail(fmt.Errorf("%d %s announced with %d bytes left", n, what, len(r.buf)))
		return 0
	}
	return int(n)
}

// ascending adds an ID gap to prev. After the first element a zero gap
// would repeat the previous value, which no encoder writes.
func (r *shardReader) ascending(what string, prev uint64, first bool) uint64 {
	gap := r.uvarint()
	if !first && gap == 0 {
		r.fail(fmt.Errorf("%s not strictly increasing", what))
	}
	if gap > math.MaxUint64-prev {
		r.fail(fmt.Errorf("%s overflows", what))
	}
	return prev + gap
}

func decodeCampaignResult(data []byte) (CampaignResult, error) {
	print, err := shardHeader(data)
	if err != nil {
		return CampaignResult{}, err
	}
	out := CampaignResult{Fingerprint: print}
	r := &shardReader{buf: data[shardHeaderLen:]}

	lost := r.uvarint()
	if lost > math.MaxInt {
		r.fail(fmt.Errorf("lost count %d overflows int", lost))
	}
	out.Lost = int(lost)

	switch kind := r.bytes(1); {
	case kind == nil:
	case kind[0] == distKindExact:
		out.Dist = r.exactDist()
	default:
		r.fail(fmt.Errorf("unknown distribution kind %d", kind[0]))
	}

	if n := r.count("runs", minRunBytes); n > 0 {
		out.PerRun = make([]RunResult, n)
		for i := range out.PerRun {
			r.run(&out.PerRun[i])
		}
	}
	if r.err == nil && len(r.buf) != 0 {
		r.fail(fmt.Errorf("%d trailing bytes", len(r.buf)))
	}
	if r.err != nil {
		return CampaignResult{}, r.err
	}
	return out, nil
}

func (r *shardReader) exactDist() Distribution {
	n := r.count("samples", minGapBytes)
	if n == 0 {
		return Distribution{}
	}
	sorted := make([]time.Duration, n)
	prev := r.varint()
	sorted[0] = time.Duration(prev)
	for i := 1; i < n; i++ {
		gap := r.uvarint()
		// Wrapping arithmetic again: MaxInt64 - prev always fits a uint64.
		if gap > uint64(math.MaxInt64)-uint64(prev) {
			r.fail(errors.New("sample overflows int64"))
			return Distribution{}
		}
		prev += int64(gap)
		sorted[i] = time.Duration(prev)
	}
	if r.err != nil {
		return Distribution{}
	}
	return newSortedDistribution(sorted)
}

func (r *shardReader) run(run *RunResult) {
	copy(run.TxID[:], r.bytes(len(run.TxID)))
	run.InjectedAt = time.Duration(r.varint())

	n := r.count("deltas", minPairBytes)
	run.Deltas = make(map[p2p.NodeID]time.Duration, n)
	id := uint64(0)
	for i := 0; i < n && r.err == nil; i++ {
		id = r.ascending("connection IDs", id, i == 0)
		run.Deltas[p2p.NodeID(id)] = time.Duration(r.varint())
	}
	if n := r.count("missing connections", minGapBytes); n > 0 {
		run.Missing = make([]p2p.NodeID, n)
		for i := range run.Missing {
			run.Missing[i] = p2p.NodeID(r.uvarint())
		}
	}
}

// Binary codec for campaign results: the one serialization the fleet
// subsystem ships over the wire and keeps in its spool. Format 2 — a shard
// is its samples. Layout, all integers little-endian or (u)varint as
// encoding/binary defines them:
//
//	offset 0   4 bytes   magic "BCS" + format version (shardVersion)
//	offset 4   8 bytes   Fingerprint, little-endian
//	           uvarint   Lost
//	           uvarint   sample count n; if n > 0: varint first (smallest)
//	                     sample, then n-1 uvarint gaps between consecutive
//	                     sorted samples
//
// Format 1 also carried a distribution kind byte and every injection's
// per-connection Δt map, which no figure read; a format-1 shard is refused
// by its version and there is no decoder for it.
//
// The header is fixed so that a coordinator checks a shard's fingerprint
// with ShardFingerprint — a slice index — without decoding the body.
//
// Round-trip contract, both ways: decode(encode(r)) is bit-identical to r —
// the property the fleet's "merged outcome equals a single-machine sweep"
// guarantee rests on — and encode(decode(b)) is b for every b the decoder
// accepts, so a shard cannot change by being spooled and re-read.
// Distributions ship their sorted samples and rebuild through
// newSortedDistribution (same samples, same summation order, same float
// bits as NewDistribution).
//
// The decoder runs on bytes from a socket: the announced sample count is
// checked against the bytes that remain before anything is allocated, so
// memory stays proportional to the input; a varint that overflows 64 bits
// or is padded beyond its shortest form, a sample past int64 and trailing
// bytes are errors.
package measure

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// shardVersion is the last byte of the header's magic; bump it on any
// layout change so skewed binaries reject each other's shards.
const shardVersion = 2

// shardHeaderLen is the fixed prefix: magic+version, then Fingerprint.
const shardHeaderLen = 12

var shardMagic = [4]byte{'B', 'C', 'S', shardVersion}

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
		if [3]byte(data[:3]) == [3]byte(shardMagic[:3]) {
			return 0, fmt.Errorf("shard format version %d, this binary reads only version %d", data[3], shardVersion)
		}
		return 0, fmt.Errorf("unknown shard magic % x", data[:4])
	}
	return binary.LittleEndian.Uint64(data[4:shardHeaderLen]), nil
}

// EncodeCampaignResult serializes a shard result for shipping.
func EncodeCampaignResult(r CampaignResult) ([]byte, error) {
	if r.Lost < 0 {
		return nil, fmt.Errorf("measure: encode campaign result: negative Lost %d", r.Lost)
	}
	b := make([]byte, shardHeaderLen, shardHeaderLen+2*binary.MaxVarintLen64+4*len(r.Dist.sorted))
	copy(b, shardMagic[:])
	binary.LittleEndian.PutUint64(b[4:], r.Fingerprint)
	b = binary.AppendUvarint(b, uint64(r.Lost))
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
	// The capacity above is an estimate with slack; a shard outlives its
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

func (r *shardReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if !shortestVarint(r.buf, n) {
		r.failVarint(n)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *shardReader) varint() int64 {
	v, n := binary.Varint(r.buf)
	if !shortestVarint(r.buf, n) {
		r.failVarint(n)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// shortestVarint reports whether encoding/binary read a whole varint from
// the first n bytes of buf and no shorter spelling of its value exists: a
// final zero byte after a continuation byte is padding no encoder writes.
func shortestVarint(buf []byte, n int) bool {
	return n == 1 || n > 1 && buf[n-1] != 0
}

// failVarint records why a varint that encoding/binary reported as n bytes
// long was refused: n == 0 is a buffer that ended mid-value, n < 0 a value
// past 64 bits, anything else the padding shortestVarint found.
func (r *shardReader) failVarint(n int) {
	switch {
	case n == 0:
		r.fail(errors.New("truncated"))
	case n < 0:
		r.fail(errors.New("varint overflows 64 bits"))
	default:
		r.fail(errors.New("varint is not in its shortest form"))
	}
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
	out.Dist = r.dist()
	if r.err == nil && len(r.buf) != 0 {
		r.fail(fmt.Errorf("%d trailing bytes", len(r.buf)))
	}
	if r.err != nil {
		return CampaignResult{}, r.err
	}
	return out, nil
}

// dist reads the sample section. A sample is at least one byte, so a count
// beyond the bytes that remain is refused before the slice is made.
func (r *shardReader) dist() Distribution {
	n := r.uvarint()
	if n > uint64(len(r.buf)) {
		r.fail(fmt.Errorf("%d samples announced with %d bytes left", n, len(r.buf)))
	}
	if n == 0 || r.err != nil {
		return Distribution{}
	}
	sorted := make([]time.Duration, n)
	prev := r.varint()
	sorted[0] = time.Duration(prev)
	for i := 1; i < len(sorted); i++ {
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

package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"commprof/internal/obs"
)

// encode renders s through the encoder, the header thread count derived
// from the records.
func encode(t testing.TB, s *Stream) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.EncodeVersion(&buf, DefaultVersion, 0); err != nil {
		t.Fatalf("EncodeVersion: %v", err)
	}
	return buf.Bytes()
}

// blockBounds returns where data's access section starts, then where each of
// its blocks ends: the header and region table span what an encoding of the
// same table without accesses spans.
func blockBounds(t testing.TB, data []byte, table *Table) []int {
	t.Helper()
	bounds := []int{len(encode(t, &Stream{Table: table}))}
	for off := bounds[0]; off < len(data); {
		off += v3BlockHdrLen + int(binary.LittleEndian.Uint32(data[off+4:]))
		bounds = append(bounds, off)
	}
	return bounds
}

// decodeAll strict-decodes every record of data incrementally.
func decodeAll(t testing.TB, data []byte) (*Decoder, []Access) {
	t.Helper()
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var accs []Access
	if err := dec.ForEach(func(a Access) error {
		accs = append(accs, a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return dec, accs
}

// TestV3RoundTripShapes drives the v3 encoder/decoder across stream shapes
// from empty to multi-block, plus an adversarial record set exercising the
// extremes of every field (wraparound deltas, max values, NoRegion,
// boundary thread IDs).
func TestV3RoundTripShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := []*Stream{
		randomStream(rng, 0, 0),
		randomStream(rng, 1, 1),
		randomStream(rng, 3, 17),
		randomStream(rng, 12, 500),
		randomStream(rng, 5, 3*v3BlockRecords+77), // several blocks + partial tail
	}
	adv := &Stream{Table: NewTable()}
	adv.Accesses = []Access{
		{Time: math.MaxUint64, Addr: math.MaxUint64, Size: math.MaxUint32, Thread: 0, Region: NoRegion, Kind: Write},
		{Time: 0, Addr: 0, Size: 0, Thread: v3MaxThreads - 1, Region: NoRegion, Kind: Read},
		{Time: math.MaxUint64 - 1, Addr: 1, Size: 1, Thread: 0, Region: NoRegion, Kind: Read},
		{Time: 5, Addr: math.MaxUint64 / 2, Size: 7, Thread: v3MaxThreads - 1, Region: NoRegion, Kind: Write},
		{Time: 5, Addr: math.MaxUint64/2 + 1, Size: 7, Thread: v3MaxThreads - 1, Region: NoRegion, Kind: Write},
	}
	shapes = append(shapes, adv)

	for si, s := range shapes {
		data := encode(t, s)
		dec, accs := decodeAll(t, data)
		if len(accs) != len(s.Accesses) {
			t.Fatalf("shape %d: decoded %d records, want %d", si, len(accs), len(s.Accesses))
		}
		for i := range accs {
			if accs[i] != s.Accesses[i] {
				t.Fatalf("shape %d: record %d = %+v, want %+v", si, i, accs[i], s.Accesses[i])
			}
		}
		for i, want := range s.Table.Regions {
			if got := dec.Table().Regions[i]; got != want {
				t.Fatalf("shape %d: region %d = %+v, want %+v", si, i, got, want)
			}
		}
	}
}

// TestV3Compacts sanity-checks the size win on a random stream against the
// 29 bytes a record takes unpacked (real workload streams compress far
// better; bench/'s trace.bytes_per_access measures them).
func TestV3Compacts(t *testing.T) {
	s := randomStream(rand.New(rand.NewSource(33)), 4, 20000)
	unpacked := 29 * len(s.Accesses)
	if v3 := len(encode(t, s)); v3*2 >= unpacked {
		t.Fatalf("v3 %d bytes vs %d unpacked: expected at least 2x smaller even on random input", v3, unpacked)
	}
}

// v3Craft builds a v3 stream from hand-made block bytes: a 20-byte header
// declaring n records and no regions, followed by the given blocks.
func v3Craft(n uint32, blocks ...[]byte) []byte {
	out := make([]byte, 0, 64)
	out = binary.LittleEndian.AppendUint32(out, codecMagic)
	out = binary.LittleEndian.AppendUint32(out, DefaultVersion)
	out = binary.LittleEndian.AppendUint32(out, 0) // regions
	out = binary.LittleEndian.AppendUint32(out, n)
	out = binary.LittleEndian.AppendUint32(out, 1) // threads
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// v3CraftBlock frames payload as a block declaring recs records, with a
// correct CRC.
func v3CraftBlock(recs uint32, payload []byte) []byte {
	out := make([]byte, 0, v3BlockHdrLen+len(payload))
	out = binary.LittleEndian.AppendUint32(out, recs)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// oneRecordPayload is a minimal valid v3 record: explicit thread 0, time,
// addr, size and region all explicit zero-ish values.
func oneRecordPayload() []byte {
	p := []byte{0x00}                     // tag: nothing predicted, kind read
	p = append(p, 0x00)                   // thread 0
	p = binary.AppendVarint(p, 7)         // time delta
	p = binary.AppendVarint(p, 0x1000)    // addr delta
	p = binary.AppendUvarint(p, 8)        // size
	p = binary.AppendVarint(p, int64(-1)) // region NoRegion
	return p
}

// v3Corruption is one case of the corruption table: a crafted stream, the
// failure its decode must report, and where.
type v3Corruption struct {
	name     string
	data     []byte
	want     string
	wantEOF  bool // expect io.ErrUnexpectedEOF in the chain
	position string
}

// v3CorruptionCases is every block-level failure mode of the v3 format, one
// crafted stream each.
func v3CorruptionCases() []v3Corruption {
	valid := v3Craft(1, v3CraftBlock(1, oneRecordPayload()))

	overlong := []byte{0x00}
	overlong = append(overlong, bytes.Repeat([]byte{0x80}, 11)...) // thread varint never terminates in 10 bytes

	sameThreadFirst := []byte{v3TagSameThread | v3TagTimePred | v3TagAddrPred | v3TagSameSize | v3TagSameRegion}

	reserved := []byte{0xC0}

	trailing := append(oneRecordPayload(), 0xAB)

	exhausted := oneRecordPayload() // declares 2 records, contains 1

	return []v3Corruption{
		{
			name: "bad-crc",
			data: func() []byte {
				d := append([]byte(nil), valid...)
				d[len(d)-1] ^= 0xFF // flip a payload byte; header CRC now stale
				return d
			}(),
			want:     "checksum mismatch",
			position: "record 1 of 1",
		},
		{
			name:     "truncated-block-payload",
			data:     valid[:len(valid)-3],
			want:     "read block payload",
			wantEOF:  true,
			position: "record 1 of 1",
		},
		{
			name:     "truncated-block-header",
			data:     valid[:20+5],
			want:     "read block header",
			wantEOF:  true,
			position: "record 1 of 1",
		},
		{
			name:     "missing-block",
			data:     valid[:20],
			want:     "read block header",
			wantEOF:  true,
			position: "record 1 of 1",
		},
		{
			name:     "overlong-varint",
			data:     v3Craft(1, v3CraftBlock(1, overlong)),
			want:     "overflows 64 bits",
			position: "record 1 of 1",
		},
		{
			name:     "reserved-tag-bits",
			data:     v3Craft(1, v3CraftBlock(1, reserved)),
			want:     "reserved tag bits",
			position: "record 1 of 1",
		},
		{
			name:     "same-thread-on-first-record",
			data:     v3Craft(1, v3CraftBlock(1, sameThreadFirst)),
			want:     "same-thread tag",
			position: "record 1 of 1",
		},
		{
			name:     "block-over-declares",
			data:     v3Craft(1, v3CraftBlock(5, oneRecordPayload())),
			want:     "only 1 remain",
			position: "record 1 of 1",
		},
		{
			name:     "zero-record-block",
			data:     v3Craft(1, v3CraftBlock(0, nil)),
			want:     "declares 0 records",
			position: "record 1 of 1",
		},
		{
			name: "oversized-payload-declared",
			data: v3Craft(1, func() []byte {
				b := v3CraftBlock(1, oneRecordPayload())
				binary.LittleEndian.PutUint32(b[4:], v3MaxBlockBytes+1)
				return b
			}()),
			want:     "payload bytes",
			position: "record 1 of 1",
		},
		{
			name:     "trailing-bytes-in-block",
			data:     v3Craft(1, v3CraftBlock(1, trailing)),
			want:     "trailing bytes",
			position: "record 1 of 1",
		},
		{
			name:     "payload-exhausted",
			data:     v3Craft(2, v3CraftBlock(2, exhausted)),
			want:     "payload exhausted",
			position: "record 2 of 2",
		},
	}
}

// TestV3CorruptionTable drives the decoder through every block-level failure
// mode and pins the "record i of n" sticky-error contract for each.
func TestV3CorruptionTable(t *testing.T) {
	for _, tc := range v3CorruptionCases() {
		t.Run(tc.name, func(t *testing.T) {
			dec, err := NewDecoder(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatalf("NewDecoder: %v", err)
			}
			var decErr error
			for {
				if _, err := dec.Next(); err != nil {
					if err != io.EOF {
						decErr = err
					}
					break
				}
			}
			if decErr == nil {
				t.Fatal("corrupt stream decoded cleanly")
			}
			if !strings.Contains(decErr.Error(), tc.want) {
				t.Errorf("error %q missing %q", decErr, tc.want)
			}
			if !strings.Contains(decErr.Error(), tc.position) {
				t.Errorf("error %q missing position %q", decErr, tc.position)
			}
			if tc.wantEOF && !errors.Is(decErr, io.ErrUnexpectedEOF) {
				t.Errorf("error %q does not wrap io.ErrUnexpectedEOF", decErr)
			}
			// Sticky: the same failure again, never a resync.
			if _, err := dec.Next(); err == nil || err.Error() != decErr.Error() {
				t.Errorf("error did not stick: %v then %v", decErr, err)
			}
		})
	}

	// The valid crafted stream itself must decode — otherwise the cases
	// above could be failing for the wrong reason.
	if _, accs := decodeAll(t, v3Craft(1, v3CraftBlock(1, oneRecordPayload()))); len(accs) != 1 {
		t.Fatalf("baseline crafted stream decoded %d records, want 1", len(accs))
	}
}

// TestNextBatchMatchesNext holds the batched decode path to the Next
// contract across batch capacities, including batches that cross block
// boundaries.
func TestNextBatchMatchesNext(t *testing.T) {
	s := randomStream(rand.New(rand.NewSource(14)), 4, v3BlockRecords+321)
	data := encode(t, s)
	_, want := decodeAll(t, data)
	for _, capacity := range []int{1, 7, 512, len(s.Accesses) + 9} {
		dec, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]Access, 0, capacity)
		var got []Access
		for {
			batch, err := dec.NextBatch(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("cap %d: NextBatch: %v", capacity, err)
			}
			if len(batch) == 0 {
				t.Fatalf("cap %d: empty batch without error", capacity)
			}
			got = append(got, batch...)
		}
		if len(got) != len(want) {
			t.Fatalf("cap %d: %d records, want %d", capacity, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cap %d: record %d = %+v, want %+v", capacity, i, got[i], want[i])
			}
		}
	}
	if _, err := (&Decoder{}).NextBatch(nil); err == nil {
		t.Error("NextBatch accepted a zero-capacity buffer")
	}
}

// TestNextBatchSurfacesErrorAfterPartialBatch pins the partial-batch error
// contract: records decoded before a failure are returned with a nil error,
// and the sticky failure surfaces on the following call.
func TestNextBatchSurfacesErrorAfterPartialBatch(t *testing.T) {
	s := randomStream(rand.New(rand.NewSource(2)), 2, v3BlockRecords+10)
	data := encode(t, s)
	cut := data[:blockBounds(t, data, s.Table)[2]-5] // the second block's payload ends short
	dec, err := NewDecoder(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := dec.NextBatch(make([]Access, 0, 2*v3BlockRecords))
	if err != nil {
		t.Fatalf("partial batch returned error %v, want records first", err)
	}
	if len(batch) != v3BlockRecords {
		t.Fatalf("partial batch has %d records, want the first block's %d", len(batch), v3BlockRecords)
	}
	want := fmt.Sprintf("record %d of %d", v3BlockRecords+1, len(s.Accesses))
	if _, err := dec.NextBatch(batch); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("second NextBatch = %v, want sticky %q failure", err, want)
	}
}

// uniformStream builds a steady multi-threaded stream whose v3 blocks all
// encode to the same size: per-thread constant time and address strides.
func uniformStream(n int) *Stream {
	tb := NewTable()
	tb.AddFunc("f", NoRegion)
	s := &Stream{Table: tb}
	for i := 0; i < n; i++ {
		th := int32(i % 8)
		s.Accesses = append(s.Accesses, Access{
			Time:   uint64(i),
			Addr:   0x10000 + uint64(th)*0x4000 + uint64(i/8)*8,
			Size:   8,
			Thread: th,
			Region: 0,
			Kind:   Kind(i % 2),
		})
	}
	return s
}

// TestV3NextBatchZeroAlloc is the perf half of the batched-decode contract:
// once the decoder's block buffer and context table are warm, NextBatch
// performs zero heap allocations per call — the caller-owned slice is the
// only storage.
func TestV3NextBatchZeroAlloc(t *testing.T) {
	s := uniformStream(6 * v3BlockRecords)
	data := encode(t, s)
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Access, 0, 512)
	if buf, err = dec.NextBatch(buf); err != nil || len(buf) != 512 {
		t.Fatalf("warm-up batch: %d records, err %v", len(buf), err)
	}
	allocs := testing.AllocsPerRun(24, func() {
		b, err := dec.NextBatch(buf)
		if err != nil || len(b) == 0 {
			t.Fatalf("NextBatch: %d records, err %v", len(b), err)
		}
	})
	if allocs != 0 {
		t.Errorf("NextBatch allocates %.1f objects per batch, want 0", allocs)
	}
}

// TestV3CompactCommonRecord pins the headline size claim: the steady-state
// record of a striding loop (same thread as predecessor handled via
// same-thread runs is rare here, but time and addr both stride-predicted,
// size and region unchanged) costs ~2 bytes, far under the 29-byte fixed
// record.
func TestV3CompactCommonRecord(t *testing.T) {
	s := uniformStream(4 * v3BlockRecords)
	data := encode(t, s)
	accessBytes := len(data) - 20 // minus header; table is tiny
	perRecord := float64(accessBytes) / float64(len(s.Accesses))
	if perRecord > 4 {
		t.Fatalf("steady-state record costs %.2f bytes, want <= 4", perRecord)
	}
}

// TestDecodeTolerantV3 drives salvage over an unfinalized v3 stream in both
// crash shapes: cut between blocks (clean salvage, no error) and cut inside
// a block (complete blocks salvaged, cause reported).
func TestDecodeTolerantV3(t *testing.T) {
	s := uniformStream(2*v3BlockRecords + 500) // two full blocks + partial
	data := encode(t, s)

	// Simulate a writer that died before Close: sentinel counts.
	unfinalize := func(d []byte) []byte {
		out := append([]byte(nil), d...)
		for i := 12; i < 20; i++ {
			out[i] = 0xFF
		}
		return out
	}
	// Locate the first block boundary (no regions in uniformStream's table
	// beyond one; parse past header + table to the block header).
	// uniformStream's table has one region: id+parent+kind (9) + name "f"
	// (4+1) + file "" (4) + line (4) = 22 bytes after the 20-byte header.
	tableEnd := 20 + 22
	plen0 := int(binary.LittleEndian.Uint32(data[tableEnd+4:]))
	block1End := tableEnd + v3BlockHdrLen + plen0

	// Strict decode must reject the unfinalized stream outright.
	if _, err := NewDecoder(bytes.NewReader(unfinalize(data))); err == nil || !strings.Contains(err.Error(), "finalized") {
		t.Fatalf("strict decoder on unfinalized stream: %v", err)
	}

	t.Run("cut-between-blocks", func(t *testing.T) {
		st, rec, err := decodeTolerant(bytes.NewReader(unfinalize(data)[:block1End]))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Records != v3BlockRecords || len(st.Accesses) != v3BlockRecords {
			t.Fatalf("recovered %d records, want one full block (%d)", rec.Records, v3BlockRecords)
		}
		if !rec.Unfinalized || rec.Declared != -1 {
			t.Fatalf("recovery = %+v, want unfinalized with unknown declared count", rec)
		}
		if rec.Err != nil {
			t.Fatalf("clean between-blocks cut reported error: %v", rec.Err)
		}
		if rec.Threads != 8 {
			t.Fatalf("derived threads = %d, want 8", rec.Threads)
		}
		for i := range st.Accesses {
			if st.Accesses[i] != s.Accesses[i] {
				t.Fatalf("salvaged record %d = %+v, want %+v", i, st.Accesses[i], s.Accesses[i])
			}
		}
	})

	t.Run("cut-inside-block", func(t *testing.T) {
		st, rec, err := decodeTolerant(bytes.NewReader(unfinalize(data)[:block1End+200]))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Records != v3BlockRecords {
			t.Fatalf("recovered %d records, want %d (the intact block only)", rec.Records, v3BlockRecords)
		}
		if rec.Err == nil || !strings.Contains(rec.Err.Error(), "count unfinalized") {
			t.Fatalf("mid-block cut error = %v, want suppressed record-context cause", rec.Err)
		}
		if len(st.Accesses) != v3BlockRecords {
			t.Fatalf("stream carries %d accesses", len(st.Accesses))
		}
	})

	t.Run("finalized-intact", func(t *testing.T) {
		st, rec, err := decodeTolerant(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Records != len(s.Accesses) || rec.Err != nil || rec.Unfinalized {
			t.Fatalf("recovery of an intact stream = %+v", rec)
		}
		if rec.Declared != len(s.Accesses) {
			t.Fatalf("Declared = %d, want %d", rec.Declared, len(s.Accesses))
		}
		if len(st.Accesses) != len(s.Accesses) {
			t.Fatalf("decoded %d accesses", len(st.Accesses))
		}
	})

	t.Run("finalized-truncated", func(t *testing.T) {
		// A finalized header with a short tail also salvages tolerantly
		// (declared count known, so the shortfall is reported as the cause).
		_, rec, err := decodeTolerant(bytes.NewReader(data[:len(data)-3]))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Records != 2*v3BlockRecords || rec.Err == nil || rec.Unfinalized {
			t.Fatalf("recovery = %+v, want the two full blocks + cause, finalized", rec)
		}
		if want := fmt.Sprintf("record %d of %d", 2*v3BlockRecords+1, len(s.Accesses)); !strings.Contains(rec.Err.Error(), want) {
			t.Fatalf("cause %v missing %q", rec.Err, want)
		}
	})
}

// TestV3EncoderLimits pins the encoder-side validation: thread IDs beyond
// the v3 cap and unencodable kinds are rejected in both count modes.
func TestV3EncoderLimits(t *testing.T) {
	tb := NewTable()
	var buf bytes.Buffer
	enc, err := NewEncoderVersion(&buf, tb, 1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Access{Thread: v3MaxThreads}); err == nil || !strings.Contains(err.Error(), "thread") {
		t.Errorf("v3 encoder accepted thread %d: %v", v3MaxThreads, err)
	}
	var ms Buffer
	dyn, err := NewDynamicEncoder(&ms, tb)
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.Write(Access{Thread: v3MaxThreads}); err == nil || !strings.Contains(err.Error(), "thread") {
		t.Errorf("dynamic v3 encoder accepted thread %d: %v", v3MaxThreads, err)
	}
	// A refused record fails the stream for good: a producer that cannot act
	// on Write's error (Record's tap) must still see it at Close.
	if err := dyn.Close(); err == nil || !strings.Contains(err.Error(), "thread") {
		t.Errorf("Close after a failed Write = %v, want the sticky Write error", err)
	}
	var buf2 bytes.Buffer
	enc2, err := NewEncoderVersion(&buf2, tb, 1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc2.Write(Access{Kind: Kind(7)}); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("v3 encoder accepted kind 7: %v", err)
	}
	for _, version := range []int{1, 2, 4} {
		if _, err := NewEncoderVersion(io.Discard, tb, 0, 0, version); err == nil {
			t.Errorf("NewEncoderVersion accepted version %d", version)
		}
	}
}

// TestCodecProbesExactTotals holds the batched telemetry to the exactness
// contract: whatever the batching, the counters land on the exact record
// totals for both encode and decode, on both the single-record and batched
// paths.
func TestCodecProbesExactTotals(t *testing.T) {
	s := randomStream(rand.New(rand.NewSource(77)), 3, 1000)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	enc, err := NewEncoderVersion(&buf, s.Table, len(s.Accesses), 0, DefaultVersion)
	if err != nil {
		t.Fatal(err)
	}
	enc.Probes = &obs.TraceProbes{EncodedRecords: reg.Counter("enc")}
	for _, a := range s.Accesses {
		if err := enc.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("enc").Value(); v != uint64(len(s.Accesses)) {
		t.Errorf("EncodedRecords = %d, want %d", v, len(s.Accesses))
	}

	probes := &obs.TraceProbes{DecodedRecords: obs.NewRegistry().Counter("dec")}
	dec, err := NewDecoder(bytes.NewReader(encode(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	dec.Probes = probes
	batch := make([]Access, 0, 300)
	for {
		if batch, err = dec.NextBatch(batch); err != nil {
			break
		}
	}
	if err != io.EOF {
		t.Fatal(err)
	}
	if v := probes.DecodedRecords.Value(); v != uint64(len(s.Accesses)) {
		t.Errorf("DecodedRecords = %d, want %d", v, len(s.Accesses))
	}

	// The dynamic encoder batches the same way.
	reg = obs.NewRegistry()
	var ms Buffer
	dyn, err := NewDynamicEncoder(&ms, s.Table)
	if err != nil {
		t.Fatal(err)
	}
	dyn.Probes = &obs.TraceProbes{EncodedRecords: reg.Counter("enc")}
	for _, a := range s.Accesses {
		if err := dyn.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := dyn.Close(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("enc").Value(); v != uint64(len(s.Accesses)) {
		t.Errorf("dynamic: EncodedRecords = %d, want %d", v, len(s.Accesses))
	}
}

// FuzzV3RoundTrip generates streams, encodes them as v3, and holds the
// decoder to exact reproduction; every strict prefix must fail (the header
// and block framing declare all lengths) and a flipped byte must never
// panic — the block CRC catches payload corruption, the varint and tag
// validation everything else.
func FuzzV3RoundTrip(f *testing.F) {
	f.Add(int64(1), byte(3), uint16(17), uint16(40), uint16(8), byte(0))
	f.Add(int64(7), byte(0), uint16(0), uint16(0), uint16(0), byte(0xff))
	f.Add(int64(42), byte(12), uint16(5000), uint16(3), uint16(12), byte(0x80))
	f.Add(int64(-9), byte(1), uint16(1), uint16(15), uint16(16), byte(1))

	f.Fuzz(func(t *testing.T, seed int64, nRegions byte, nAccesses, cut, xorPos uint16, xor byte) {
		rng := rand.New(rand.NewSource(seed))
		s := randomStream(rng, int(nRegions%16), int(nAccesses)%8192)

		var buf bytes.Buffer
		if err := s.EncodeVersion(&buf, 3, 0); err != nil {
			t.Fatalf("EncodeVersion: %v", err)
		}
		data := buf.Bytes()

		dec, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("NewDecoder: %v", err)
		}
		i := 0
		batch := make([]Access, 0, 256)
		for {
			batch, err = dec.NextBatch(batch)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("NextBatch at %d: %v", i, err)
			}
			for _, got := range batch {
				if got != s.Accesses[i] {
					t.Fatalf("record %d = %+v, want %+v", i, got, s.Accesses[i])
				}
				i++
			}
		}
		if i != len(s.Accesses) {
			t.Fatalf("decoded %d records, want %d", i, len(s.Accesses))
		}

		if len(data) > 0 {
			trunc := data[:int(cut)%len(data)]
			if err := streamDecodeAll(trunc); err == nil {
				t.Fatalf("truncated v3 stream (%d of %d bytes) decoded cleanly", len(trunc), len(data))
			}
		}
		if len(data) > 0 && xor != 0 {
			flipped := append([]byte(nil), data...)
			flipped[int(xorPos)%len(flipped)] ^= xor
			_ = streamDecodeAll(flipped)
		}
	})
}

// FuzzV3Decoder feeds arbitrary bytes to the v3 decode paths and holds the
// three of them to one contract: strict ForEach, strict NextBatch and tolerant
// decode must never panic or hang, strict paths must agree record for
// record, and the tolerant path must salvage a prefix of what strict
// decoding yields — never invent records.
func FuzzV3Decoder(f *testing.F) {
	s := randomStream(rand.New(rand.NewSource(4)), 3, 600)
	var buf bytes.Buffer
	if err := s.EncodeVersion(&buf, 3, 0); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Add(valid[:25])
	f.Add([]byte{})
	unfinalized := append([]byte(nil), valid...)
	for i := 12; i < 20; i++ {
		unfinalized[i] = 0xFF
	}
	f.Add(unfinalized)
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x10
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Strict ForEach (1 024-record batches).
		var strict []Access
		var strictErr error
		if dec, err := NewDecoder(bytes.NewReader(data)); err == nil {
			strictErr = dec.ForEach(func(a Access) error {
				strict = append(strict, a)
				return nil
			})
		} else {
			strictErr = err
		}

		// Strict NextBatch at another capacity must agree exactly.
		if dec, err := NewDecoder(bytes.NewReader(data)); err == nil {
			var got []Access
			var batchErr error
			b := make([]Access, 0, 64)
			for {
				b, batchErr = dec.NextBatch(b)
				if batchErr != nil {
					break
				}
				got = append(got, b...)
			}
			if batchErr == io.EOF {
				batchErr = nil
			}
			if (batchErr == nil) != (strictErr == nil) {
				t.Fatalf("batch err %v vs strict err %v", batchErr, strictErr)
			}
			if len(got) != len(strict) {
				t.Fatalf("batch decoded %d records, strict %d", len(got), len(strict))
			}
			for i := range got {
				if got[i] != strict[i] {
					t.Fatalf("batch record %d = %+v, strict %+v", i, got[i], strict[i])
				}
			}
		}

		// Tolerant path: never errors past the header, and what it salvages
		// is a prefix of the strict decode.
		st, rec, err := decodeTolerant(bytes.NewReader(data))
		if err != nil {
			return // header/table-level rejection, same as strict
		}
		if rec.Records != len(st.Accesses) {
			t.Fatalf("recovery reports %d records, stream has %d", rec.Records, len(st.Accesses))
		}
		if len(st.Accesses) < len(strict) && strictErr == nil {
			t.Fatalf("tolerant salvaged %d of %d cleanly-decodable records", len(st.Accesses), len(strict))
		}
		for i := 0; i < len(st.Accesses) && i < len(strict); i++ {
			if st.Accesses[i] != strict[i] {
				t.Fatalf("tolerant record %d = %+v, strict %+v", i, st.Accesses[i], strict[i])
			}
		}
	})
}

// salvage is what a tolerant decoder recovered from a damaged stream and what
// it says about it: these tests' view of NewDecoderTolerant.
type salvage struct {
	Records     int   // complete access records recovered
	Declared    int   // the header's access count, -1 when it was never finalized
	Threads     int   // the header's count, or max(Thread)+1 over the records if larger
	Unfinalized bool  // the writer died before Close
	Err         error // what ended recovery early; nil when the stream ended cleanly
}

// decodeTolerant drains NewDecoderTolerant over r. Header or region-table
// corruption is still fatal.
func decodeTolerant(r io.Reader) (*Stream, *salvage, error) {
	d, err := NewDecoderTolerant(r)
	if err != nil {
		return nil, nil, err
	}
	s := &Stream{Table: d.Table()}
	if err := d.ForEach(func(a Access) error {
		s.Accesses = append(s.Accesses, a)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	rec := &salvage{len(s.Accesses), d.DeclaredLen(), max(d.Threads(), d.SeenThreads()), d.Unfinalized(), d.SalvageErr()}
	if rec.Unfinalized {
		rec.Declared = -1
	}
	return s, rec, nil
}

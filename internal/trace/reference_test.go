package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// referenceDecode is the per-record v3 decode body the codec shipped before
// decodeInto became the one decoder: each field through a bounds-checked
// binary.Uvarint/Varint call, assembled into an Access that is returned
// whole. It is kept verbatim, its two varint helpers renamed, as the wall
// decodeInto is held to.
func (r *v3BlockReader) referenceDecode() (Access, error) {
	if r.pos >= len(r.payload) {
		return Access{}, fmt.Errorf("block payload exhausted with %d records undecoded", r.left)
	}
	tag := r.payload[r.pos]
	r.pos++
	if tag&v3TagReserved != 0 {
		return Access{}, fmt.Errorf("reserved tag bits %#x set", tag&v3TagReserved)
	}
	var a Access
	if tag&v3TagSameThread != 0 {
		if !r.hasPrev {
			return Access{}, fmt.Errorf("same-thread tag on the block's first record")
		}
		a.Thread = r.prevThread
	} else {
		v, err := r.referenceUvarint()
		if err != nil {
			return Access{}, err
		}
		if v >= v3MaxThreads {
			return Access{}, fmt.Errorf("thread %d outside [0, %d)", v, v3MaxThreads)
		}
		a.Thread = int32(v)
	}
	c := r.ctx(a.Thread)
	predTime := c.lastTime + c.timeStride
	predAddr := c.lastAddr + c.addrStride
	if tag&v3TagTimePred != 0 {
		a.Time = predTime
	} else {
		d, err := r.referenceSvarint()
		if err != nil {
			return Access{}, err
		}
		a.Time = predTime + uint64(d)
	}
	if tag&v3TagAddrPred != 0 {
		a.Addr = predAddr
	} else {
		d, err := r.referenceSvarint()
		if err != nil {
			return Access{}, err
		}
		a.Addr = predAddr + uint64(d)
	}
	if tag&v3TagSameSize != 0 {
		a.Size = c.size
	} else {
		v, err := r.referenceUvarint()
		if err != nil {
			return Access{}, err
		}
		if v > math.MaxUint32 {
			return Access{}, fmt.Errorf("size %d overflows 32 bits", v)
		}
		a.Size = uint32(v)
	}
	if tag&v3TagSameRegion != 0 {
		a.Region = c.region
	} else {
		v, err := r.referenceSvarint()
		if err != nil {
			return Access{}, err
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return Access{}, fmt.Errorf("region %d overflows 32 bits", v)
		}
		a.Region = int32(v)
	}
	if tag&v3TagWrite != 0 {
		a.Kind = Write
	}
	c.update(a)
	r.prevThread = a.Thread
	r.hasPrev = true
	r.left--
	if r.left == 0 && r.pos != len(r.payload) {
		return Access{}, fmt.Errorf("%d trailing bytes after the block's last record", len(r.payload)-r.pos)
	}
	return a, nil
}

func (r *v3BlockReader) referenceUvarint() (uint64, error) {
	v, n := binary.Uvarint(r.payload[r.pos:])
	if n == 0 {
		return 0, fmt.Errorf("varint truncated at block offset %d", r.pos)
	}
	if n < 0 {
		return 0, fmt.Errorf("varint at block offset %d overflows 64 bits", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *v3BlockReader) referenceSvarint() (int64, error) {
	v, n := binary.Varint(r.payload[r.pos:])
	if n == 0 {
		return 0, fmt.Errorf("varint truncated at block offset %d", r.pos)
	}
	if n < 0 {
		return 0, fmt.Errorf("varint at block offset %d overflows 64 bits", r.pos)
	}
	r.pos += n
	return v, nil
}

// compareBlockCall hands one chunk of want records to decodeInto on got and
// to referenceDecode, record by record, on ref — two readers over the same
// block in the same state — and reports the first difference in decoded
// count, records, error text, payload position or records left. It returns
// whether the chunk ended in a decode error.
func compareBlockCall(got, ref *v3BlockReader, want int) (failed bool, diff error) {
	out := make([]Access, want)
	k, err := got.decodeInto(out)
	var refErr error
	refK := 0
	for ; refK < want; refK++ {
		a, err := ref.referenceDecode()
		if err != nil {
			refErr = err
			break
		}
		if refK < k && out[refK] != a {
			return true, fmt.Errorf("record %d of the chunk = %+v, reference %+v", refK, out[refK], a)
		}
	}
	switch {
	case k != refK:
		return true, fmt.Errorf("decoded %d of %d records, reference %d", k, want, refK)
	case fmt.Sprint(err) != fmt.Sprint(refErr):
		return true, fmt.Errorf("error %v, reference %v", err, refErr)
	case got.pos != ref.pos || got.left != ref.left:
		return true, fmt.Errorf("payload position %d with %d left, reference %d with %d left", got.pos, got.left, ref.pos, ref.left)
	}
	return err != nil, nil
}

// compareV3Bodies decodes data's v3 access section with decodeInto and with
// referenceDecode in lockstep, block by block as a strict or tolerant
// Decoder loads them, over the chunks NextBatch hands the body at batch
// capacity capacity (a batch's remainder, cut at block ends). It returns how
// many records both decoded and the first difference, nil when the two
// bodies agree on every chunk until the stream ends or a decode error stops
// both. Streams of other versions, and framing failures, which the bodies
// never see, end the comparison.
func compareV3Bodies(data []byte, capacity int, tolerant bool) (int, error) {
	d, err := newDecoder(bytes.NewReader(data), tolerant)
	if err != nil || d.version != codecVersion3 {
		return 0, nil
	}
	var ref v3BlockReader
	for filled := 0; d.nUnknown || d.i < d.n; filled %= capacity {
		if d.blk.left == 0 {
			if d.loadBlock() != nil {
				break
			}
			ref.payload = d.blk.payload
			ref.begin(d.blk.left)
		}
		want := min(capacity-filled, int(d.blk.left))
		failed, diff := compareBlockCall(&d.blk, &ref, want)
		if diff != nil {
			return int(d.i), fmt.Errorf("record %d, chunk of %d: %w", d.i+1, want, diff)
		}
		if failed {
			break
		}
		d.i += uint32(want)
		filled += want
	}
	return int(d.i), nil
}

// TestV3DecodeMatchesReferenceCorruption holds decodeInto to the reference
// body over every case of the corruption table, at batch capacities 1, 7 and
// 1024, strict and tolerant.
func TestV3DecodeMatchesReferenceCorruption(t *testing.T) {
	cases := v3CorruptionCases()
	if len(cases) != 12 {
		t.Fatalf("corruption table has %d cases, want 12", len(cases))
	}
	for _, tc := range cases {
		for _, capacity := range []int{1, 7, 1024} {
			for _, tolerant := range []bool{false, true} {
				if _, err := compareV3Bodies(tc.data, capacity, tolerant); err != nil {
					t.Errorf("%s cap %d tolerant %v: %v", tc.name, capacity, tolerant, err)
				}
			}
		}
	}
}

// TestV3DecodeMatchesReferenceCorpora holds decodeInto to the reference body
// over every committed fuzz corpus entry: the byte seeds as they are, and the
// generator seeds of the round-trip targets as the streams, truncations and
// byte flips those targets build from them.
func TestV3DecodeMatchesReferenceCorpora(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus (%v)", err)
	}
	compared := 0
	for _, file := range files {
		inputs, err := corpusInputs(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, data := range inputs {
			for _, capacity := range []int{1, 7, 1024} {
				for _, tolerant := range []bool{false, true} {
					n, err := compareV3Bodies(data, capacity, tolerant)
					if err != nil {
						t.Errorf("%s cap %d tolerant %v: %v", file, capacity, tolerant, err)
					}
					compared += n
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no corpus entry reached the v3 record body; the comparison is vacuous")
	}
}

// corpusInputs reads one committed corpus file: a []byte seed is the input
// itself; a round-trip seed (seed, nRegions, nAccesses, cut, xorPos, xor)
// yields the v3 stream FuzzV3RoundTrip or FuzzStreamRoundTrip encodes from it
// (up to the header's thread count), its cut prefix and its flipped copy.
func corpusInputs(file string) ([][]byte, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 || lines[0] != "go test fuzz v1" {
		return nil, fmt.Errorf("not a fuzz corpus file")
	}
	if s, ok := strings.CutPrefix(lines[1], "[]byte("); ok {
		b, err := strconv.Unquote(strings.TrimSuffix(s, ")"))
		return [][]byte{[]byte(b)}, err
	}
	var v [6]int64
	if len(lines) != 1+len(v) {
		return nil, fmt.Errorf("%d values, want %d", len(lines)-1, len(v))
	}
	for i, line := range lines[1:] {
		_, num, _ := strings.Cut(strings.TrimSuffix(line, ")"), "(")
		if v[i], err = strconv.ParseInt(num, 0, 64); err != nil {
			return nil, err
		}
	}
	maxAccesses := 1024
	if strings.Contains(file, "FuzzV3RoundTrip") {
		maxAccesses = 8192
	}
	s := randomStream(rand.New(rand.NewSource(v[0])), int(byte(v[1])%16), int(uint16(v[2]))%maxAccesses)
	var buf bytes.Buffer
	if err := s.EncodeVersion(&buf, DefaultVersion, 0); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	flipped := append([]byte(nil), data...)
	flipped[int(uint16(v[4]))%len(flipped)] ^= byte(v[5])
	return [][]byte{data, data[:int(uint16(v[3]))%len(data)], flipped}, nil
}

// FuzzV3DecodeReference holds decodeInto to the reference body on arbitrary
// block payloads: any declared record count, any chunking, the same decoded
// records, error text, payload position and decoded count.
func FuzzV3DecodeReference(f *testing.F) {
	f.Add(oneRecordPayload(), uint16(1), byte(1))
	f.Add(append(oneRecordPayload(), 0x3e, 0x3f, 0x3e), uint16(4), byte(3))
	f.Add(append(oneRecordPayload(), 0xAB), uint16(1), byte(7))
	f.Add(oneRecordPayload(), uint16(2), byte(2))
	f.Add([]byte{0x00, 0x80, 0x80, 0x01, 0x81, 0x01, 0xff, 0x7f, 0x08, 0x01}, uint16(1), byte(1))
	f.Add(append([]byte{0x00}, bytes.Repeat([]byte{0x80}, 11)...), uint16(1), byte(1))
	f.Add([]byte{0x3e}, uint16(1), byte(1))
	f.Add([]byte{0xc0}, uint16(1), byte(1))
	// A field out of range after a well-formed varint: thread, size, region.
	f.Add(binary.AppendUvarint([]byte{0x3c}, v3MaxThreads), uint16(1), byte(1))
	f.Add(binary.AppendUvarint([]byte{0x2c, 0x00}, 1<<33), uint16(1), byte(1))
	f.Add(binary.AppendVarint([]byte{0x1c, 0x00}, -1<<40), uint16(1), byte(1))

	f.Fuzz(func(t *testing.T, payload []byte, recs uint16, chunk byte) {
		got := v3BlockReader{payload: payload}
		ref := v3BlockReader{payload: payload}
		got.begin(uint32(recs))
		ref.begin(uint32(recs))
		for got.left > 0 {
			want := min(int(chunk%16)+1, int(got.left))
			failed, diff := compareBlockCall(&got, &ref, want)
			if diff != nil {
				t.Fatalf("%d records left, chunk of %d: %v", got.left, want, diff)
			}
			if failed {
				return
			}
		}
	})
}

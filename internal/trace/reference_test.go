package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// update folds a decoded record into its thread context.
func (c *v3Ctx) update(a Access) {
	c.timeStride = a.Time - c.lastTime
	c.lastTime = a.Time
	c.addrStride = a.Addr - c.lastAddr
	c.lastAddr = a.Addr
	c.size = a.Size
	c.region = a.Region
}

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
// both. Streams the decoder refuses, and framing failures, which the bodies
// never see, end the comparison.
func compareV3Bodies(data []byte, capacity int, tolerant bool) (int, error) {
	d, err := newDecoder(bytes.NewReader(data), tolerant)
	if err != nil {
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

// refEncoder is a v3 access section written one record at a time, straight
// from the format comment in v3.go: a context per thread in a map that every
// block boundary empties, the tag bits and fields in comment order, and the
// framing (record count, payload length, CRC32 of the payload) done here.
type refEncoder struct {
	out       []byte // framed blocks
	payload   []byte // the open block's records
	recs      int
	ctxs      map[int32]*refCtx
	prev      int32
	hasPrev   bool
	maxThread int32
}

type refCtx struct {
	lastTime, timeStride, lastAddr, addrStride uint64
	size                                       uint32
	region                                     int32
}

func newRefEncoder() *refEncoder {
	return &refEncoder{ctxs: map[int32]*refCtx{}, maxThread: -1}
}

// write encodes a, framing the block at 4 096 records; it refuses a thread
// outside [0, 2^16) and a kind other than read or write.
func (r *refEncoder) write(a Access) error {
	if a.Thread < 0 || a.Thread >= 1<<16 {
		return fmt.Errorf("thread %d not encodable", a.Thread)
	}
	if a.Kind != Read && a.Kind != Write {
		return fmt.Errorf("kind %d not encodable", a.Kind)
	}
	c := r.ctxs[a.Thread]
	if c == nil {
		c = &refCtx{region: NoRegion}
		r.ctxs[a.Thread] = c
	}
	zigzag := func(d uint64) uint64 { return d<<1 ^ uint64(int64(d)>>63) }
	var tag byte
	var fields []byte
	if a.Kind == Write {
		tag |= 1 << 0
	}
	if r.hasPrev && a.Thread == r.prev {
		tag |= 1 << 1
	} else {
		fields = binary.AppendUvarint(fields, uint64(a.Thread))
	}
	if pred := c.lastTime + c.timeStride; a.Time == pred {
		tag |= 1 << 2
	} else {
		fields = binary.AppendUvarint(fields, zigzag(a.Time-pred))
	}
	if pred := c.lastAddr + c.addrStride; a.Addr == pred {
		tag |= 1 << 3
	} else {
		fields = binary.AppendUvarint(fields, zigzag(a.Addr-pred))
	}
	if a.Size == c.size {
		tag |= 1 << 4
	} else {
		fields = binary.AppendUvarint(fields, uint64(a.Size))
	}
	if a.Region == c.region {
		tag |= 1 << 5
	} else {
		fields = binary.AppendUvarint(fields, zigzag(uint64(int64(a.Region))))
	}
	r.payload = append(append(r.payload, tag), fields...)
	*c = refCtx{a.Time, a.Time - c.lastTime, a.Addr, a.Addr - c.lastAddr, a.Size, a.Region}
	r.prev, r.hasPrev, r.maxThread = a.Thread, true, max(r.maxThread, a.Thread)
	if r.recs++; r.recs == 4096 {
		r.frame()
	}
	return nil
}

// frame closes the open block, if it holds a record, and starts a fresh one.
func (r *refEncoder) frame() {
	if r.recs == 0 {
		return
	}
	r.out = binary.LittleEndian.AppendUint32(r.out, uint32(r.recs))
	r.out = binary.LittleEndian.AppendUint32(r.out, uint32(len(r.payload)))
	r.out = binary.LittleEndian.AppendUint32(r.out, crc32.ChecksumIEEE(r.payload))
	r.out = append(r.out, r.payload...)
	r.payload, r.recs, r.ctxs, r.hasPrev = nil, 0, map[int32]*refCtx{}, false
}

// encodeRefInput draws FuzzV3EncodeReference's accesses from seed: runs of
// one thread at a time on a global clock, addresses on a per-thread stride
// with jumps, occasional 64-bit times, large threads, odd sizes and regions,
// and, when bad is set, one record with an invalid thread or kind.
func encodeRefInput(rng *rand.Rand, n int, bad bool) []Access {
	acc := make([]Access, 0, n)
	var clock uint64
	addr := map[int32]uint64{}
	for len(acc) < n {
		th := int32(rng.Intn(6))
		if rng.Intn(50) == 0 {
			th = int32(rng.Intn(1 << 16))
		}
		region := int32(rng.Intn(4)) - 1
		size := uint32(8)
		for run := 1 + rng.Intn(200); run > 0 && len(acc) < n; run-- {
			clock++
			a := Access{Time: clock, Thread: th, Region: region, Size: size, Kind: Kind(rng.Intn(2))}
			switch rng.Intn(40) {
			case 0:
				a.Time = rng.Uint64()
			case 1:
				addr[th] = rng.Uint64()
			case 2:
				a.Size, size = rng.Uint32(), a.Size
			case 3:
				a.Region = int32(rng.Uint32())
			}
			addr[th] += 8
			a.Addr = addr[th]
			acc = append(acc, a)
		}
	}
	if bad && n > 0 {
		a := &acc[rng.Intn(n)]
		switch rng.Intn(4) {
		case 0:
			a.Thread = -1 - rng.Int31n(1<<20)
		case 1:
			a.Thread = 1<<16 + rng.Int31n(1<<20)
		default:
			a.Kind = Kind(2 + rng.Intn(254))
		}
	}
	return acc
}

// FuzzV3EncodeReference holds Encoder.WriteBatch (and Write, for a batch of
// one) to refEncoder over batches split at random points, many of them
// across 4 096-record blocks: the same trace bytes, Written(), failing record
// and stickiness. A declared encoder that is handed more than its count fails
// there without latching the error (its stream still holds what it
// declared); an unencodable record fails the stream for good.
func FuzzV3EncodeReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		for _, n := range []uint16{0, 1, 4095, 4096, 4097, 9000} {
			for mode := byte(0); mode < 4; mode++ {
				f.Add(seed, n, mode)
			}
		}
	}
	table := NewTable()
	table.AddLoop("loop", table.AddFunc("main", -1))

	f.Fuzz(func(t *testing.T, seed int64, n uint16, mode byte) {
		rng := rand.New(rand.NewSource(seed))
		acc := encodeRefInput(rng, int(n%13000), mode&1 != 0)
		declared := mode&2 != 0
		capacity := len(acc)
		if declared && capacity > 0 {
			capacity -= rng.Intn(2) * rng.Intn(capacity)
		}

		// The reference: one record at a time until the first refusal.
		ref := newRefEncoder()
		refFail, refSticky := -1, false
		for i, a := range acc {
			if declared && i == capacity {
				refFail = i
				break
			}
			if ref.write(a) != nil {
				refFail, refSticky = i, true
				break
			}
		}
		refWritten := len(acc)
		if refFail >= 0 {
			refWritten = refFail
		}

		var staged Buffer
		var enc *Encoder
		var err error
		if declared {
			enc, err = NewEncoderVersion(&staged, table, capacity, 7, DefaultVersion)
		} else {
			enc, err = NewDynamicEncoder(&staged, table)
		}
		if err != nil {
			t.Fatal(err)
		}
		var werr error
		for rest := acc; len(rest) > 0 && werr == nil; {
			k := min(len(rest), rng.Intn(3*4096)+1)
			if rng.Intn(4) == 0 {
				k = min(len(rest), rng.Intn(8)+1)
			}
			if k == 1 {
				werr = enc.Write(rest[0])
			} else {
				werr = enc.WriteBatch(rest[:k])
			}
			rest = rest[k:]
		}
		if got := enc.Written(); got != refWritten {
			t.Fatalf("Written() = %d, reference wrote %d", got, refWritten)
		}
		switch {
		case (werr != nil) != (refFail >= 0):
			t.Fatalf("WriteBatch error %v, reference fails at record %d", werr, refFail)
		case werr != nil && !strings.Contains(werr.Error(), fmt.Sprintf("record %d:", refFail+1)):
			t.Fatalf("WriteBatch error %q does not name record %d", werr, refFail+1)
		case werr != nil && (enc.WriteBatch(nil) != nil) != refSticky:
			t.Fatalf("error %q sticky %v, reference sticky %v", werr, !refSticky, refSticky)
		}

		header := func(accesses, threads uint32) []byte {
			var hb bytes.Buffer
			bw := bufio.NewWriter(&hb)
			if err := writeHeaderAndTable(bw, table, accesses, threads); err != nil {
				t.Fatal(err)
			}
			bw.Flush()
			return hb.Bytes()
		}
		var want []byte
		switch {
		case refSticky:
			if cerr := enc.Close(); cerr == nil || cerr.Error() != werr.Error() {
				t.Fatalf("Close after a sticky %q returned %v", werr, cerr)
			}
			enc.bw.Flush() // the blocks framed before the failure
			want = header(countUnpatched, countUnpatched)
		default:
			if err := enc.Close(); err != nil {
				t.Fatal(err)
			}
			ref.frame()
			want = header(uint32(refWritten), uint32(ref.maxThread+1))
		}
		if declared {
			want = header(uint32(capacity), 7)
		}
		want = append(want, ref.out...)
		if got := staged.Bytes(); !bytes.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("trace of %d bytes differs from the reference's %d at byte %d", len(got), len(want), i)
		}
	})
}

package trace

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// FuzzDecode checks that arbitrary bytes never panic the trace decoder and
// that anything it accepts re-encodes, through the encoder every recorder
// uses, to a decodable stream of the same shape (round-trip stability).
func FuzzDecode(f *testing.F) {
	// Seed with a valid encoding and a few corruptions of it.
	tb := NewTable()
	fn := tb.AddFunc("f", NoRegion)
	lp := tb.AddLoop("f#0", fn)
	valid := encode(f, &Stream{Table: tb, Accesses: []Access{
		{Time: 1, Addr: 0x1000, Size: 8, Thread: 0, Region: lp, Kind: Write},
		{Time: 2, Addr: 0x1000, Size: 8, Thread: 1, Region: lp, Kind: Read},
	}})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("CPMT"))
	corrupt := append([]byte(nil), valid...)
	corrupt[8] ^= 0xff // region count
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		// The decoder yields only what the encoder can represent.
		var out bytes.Buffer
		if err := st.EncodeVersion(&out, DefaultVersion, 0); err != nil {
			t.Fatalf("accepted stream failed to re-encode: %v", err)
		}
		st2, err := DecodeAll(&out)
		if err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v", err)
		}
		if len(st2.Accesses) != len(st.Accesses) || st2.Table.Len() != st.Table.Len() {
			t.Fatal("round trip changed stream shape")
		}
	})
}

// FuzzDecoder feeds arbitrary bytes to the incremental Decoder record by
// record and holds it to the batched contract: it must never panic or hang,
// and it must accept exactly the streams DecodeAll (1 024-record batches)
// accepts, producing the same table and records. It is the one fuzz target
// that decodes a record at a time (capacity 1); FuzzV3Decoder compares
// 1 024-record batches with 64-record ones.
// Corrupt or truncated input must surface as an error from NewDecoder or
// Next, never as a silent short read.
func FuzzDecoder(f *testing.F) {
	valid := encode(f, randomStream(rand.New(rand.NewSource(1)), 3, 20))
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // truncated inside the block
	f.Add(valid[:30])           // truncated in the region table
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	corrupt[12] ^= 0x40 // access count
	f.Add(corrupt)
	// A finalized real-source stream (file:line per region), a truncation of
	// it, and an unfinalized header (sentinel counts — must be rejected, not
	// decoded).
	source := encode(f, &Stream{Table: sourceTable(), Accesses: []Access{
		{Time: 1, Addr: 0x10, Size: 8, Thread: 0, Region: 1, Kind: Write},
		{Time: 2, Addr: 0x10, Size: 8, Thread: 3, Region: 1, Kind: Read},
	}})
	f.Add(source)
	f.Add(source[:len(source)-3])
	unfinalized := append([]byte(nil), source...)
	for i := 12; i < 20; i++ {
		unfinalized[i] = 0xFF
	}
	f.Add(unfinalized)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, oneErr := DecodeAll(bytes.NewReader(data))

		dec, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			if oneErr == nil {
				t.Fatalf("NewDecoder rejected (%v) a stream DecodeAll accepted", err)
			}
			return
		}
		var accs []Access
		var streamErr error
		for {
			a, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				streamErr = err
				break
			}
			accs = append(accs, a)
		}

		if oneErr == nil {
			if streamErr != nil {
				t.Fatalf("Decoder failed (%v) on a stream DecodeAll accepted", streamErr)
			}
			if dec.Table().Len() != st.Table.Len() {
				t.Fatalf("table len %d, one-shot %d", dec.Table().Len(), st.Table.Len())
			}
			if len(accs) != len(st.Accesses) {
				t.Fatalf("decoded %d records, one-shot %d", len(accs), len(st.Accesses))
			}
			for i := range accs {
				if accs[i] != st.Accesses[i] {
					t.Fatalf("record %d = %+v, one-shot %+v", i, accs[i], st.Accesses[i])
				}
			}
		} else if streamErr == nil {
			t.Fatalf("Decoder accepted a stream DecodeAll rejected: %v", oneErr)
		}
	})
}

// FuzzStreamRoundTrip drives the incremental Encoder/Decoder pair record by
// record with generated streams — Encoder.Write under a header that leaves
// the thread count to the caller, Decoder.Next out — where FuzzV3RoundTrip
// encodes materialised streams and reads them by batch: every encoding must
// stream-decode back to the identical table and record sequence, every strict
// prefix of an encoding must error (the header declares the lengths, so a
// short stream is always detectable), and a single flipped byte must never
// panic or hang either decode path.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add(int64(1), byte(3), uint16(17), uint16(40), uint16(8), byte(0))
	f.Add(int64(7), byte(0), uint16(0), uint16(0), uint16(0), byte(0xff))
	f.Add(int64(42), byte(12), uint16(500), uint16(3), uint16(12), byte(0x80))
	f.Add(int64(-9), byte(1), uint16(1), uint16(15), uint16(16), byte(1))

	f.Fuzz(func(t *testing.T, seed int64, nRegions byte, nAccesses, cut, xorPos uint16, xor byte) {
		rng := rand.New(rand.NewSource(seed))
		s := randomStream(rng, int(nRegions%16), int(nAccesses)%1024)

		var buf bytes.Buffer
		enc, err := NewEncoderVersion(&buf, s.Table, len(s.Accesses), 0, DefaultVersion)
		if err != nil {
			t.Fatalf("NewEncoder: %v", err)
		}
		for _, a := range s.Accesses {
			if err := enc.Write(a); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		data := buf.Bytes()

		dec, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("NewDecoder: %v", err)
		}
		if dec.Threads() != 0 {
			t.Fatalf("Threads = %d, want 0 (header left it to the caller)", dec.Threads())
		}
		for i, want := range s.Accesses {
			got, err := dec.Next()
			if err != nil {
				t.Fatalf("Next %d: %v", i, err)
			}
			if got != want {
				t.Fatalf("record %d = %+v, want %+v", i, got, want)
			}
		}
		if _, err := dec.Next(); err != io.EOF {
			t.Fatalf("Next past end = %v, want io.EOF", err)
		}
		for i, want := range s.Table.Regions {
			if got := dec.Table().Regions[i]; got != want {
				t.Fatalf("region %d = %+v, want %+v", i, got, want)
			}
		}

		// Any strict prefix must fail loudly on one path or the other.
		if len(data) > 0 {
			trunc := data[:int(cut)%len(data)]
			if err := streamDecodeAll(trunc); err == nil {
				t.Fatalf("truncated stream (%d of %d bytes) decoded cleanly", len(trunc), len(data))
			}
		}

		// A flipped byte may still decode (the CRC covers block payloads,
		// not the header), but it must never panic, hang, or allocate
		// unboundedly.
		if len(data) > 0 && xor != 0 {
			flipped := append([]byte(nil), data...)
			flipped[int(xorPos)%len(flipped)] ^= xor
			_ = streamDecodeAll(flipped)
		}
	})
}

// streamDecodeAll runs the incremental decode path to completion, returning
// the first error (nil for a clean, complete stream).
func streamDecodeAll(data []byte) error {
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		return err
	}
	return dec.ForEach(func(Access) error { return nil })
}

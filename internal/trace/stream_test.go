package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"commprof/internal/obs"
)

// randomStream builds a structurally valid stream from a seeded rng: a small
// region tree plus n accesses referencing it. Shared by the unit tests and
// the round-trip fuzz target.
func randomStream(rng *rand.Rand, nRegions, nAccesses int) *Stream {
	tb := NewTable()
	for i := 0; i < nRegions; i++ {
		parent := NoRegion
		if i > 0 {
			parent = int32(rng.Intn(i))
		}
		name := ""
		for j := rng.Intn(8); j >= 0; j-- {
			name += string(rune('a' + rng.Intn(26)))
		}
		if rng.Intn(2) == 0 {
			tb.AddFunc(name, parent)
		} else {
			tb.AddLoop(name, parent)
		}
	}
	s := &Stream{Table: tb}
	for i := 0; i < nAccesses; i++ {
		region := NoRegion
		if nRegions > 0 && rng.Intn(4) > 0 {
			region = int32(rng.Intn(nRegions))
		}
		s.Accesses = append(s.Accesses, Access{
			Time:   uint64(i),
			Addr:   rng.Uint64() >> uint(rng.Intn(40)),
			Size:   uint32(1 + rng.Intn(64)),
			Thread: int32(rng.Intn(32)),
			Region: region,
			Kind:   Kind(rng.Intn(2)),
		})
	}
	return s
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct{ regions, accesses int }{
		{0, 0}, {1, 0}, {0, 5}, {3, 17}, {12, 500},
	} {
		s := randomStream(rng, shape.regions, shape.accesses)
		var buf bytes.Buffer
		enc, err := NewEncoderVersion(&buf, s.Table, len(s.Accesses), 32, DefaultVersion)
		if err != nil {
			t.Fatalf("%+v: NewEncoder: %v", shape, err)
		}
		for _, a := range s.Accesses {
			if err := enc.Write(a); err != nil {
				t.Fatalf("%+v: Write: %v", shape, err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatalf("%+v: Close: %v", shape, err)
		}

		dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%+v: NewDecoder: %v", shape, err)
		}
		if dec.Len() != len(s.Accesses) {
			t.Fatalf("%+v: Len = %d, want %d", shape, dec.Len(), len(s.Accesses))
		}
		if dec.Table().Len() != s.Table.Len() {
			t.Fatalf("%+v: table len %d, want %d", shape, dec.Table().Len(), s.Table.Len())
		}
		for i, want := range s.Table.Regions {
			if got := dec.Table().Regions[i]; got != want {
				t.Fatalf("%+v: region %d = %+v, want %+v", shape, i, got, want)
			}
		}
		for i, want := range s.Accesses {
			got, err := dec.Next()
			if err != nil {
				t.Fatalf("%+v: Next %d: %v", shape, i, err)
			}
			if got != want {
				t.Fatalf("%+v: access %d = %+v, want %+v", shape, i, got, want)
			}
		}
		if _, err := dec.Next(); err != io.EOF {
			t.Fatalf("%+v: Next past end = %v, want io.EOF", shape, err)
		}

		// The one-shot wrappers must agree byte for byte.
		var oneShot bytes.Buffer
		if err := s.EncodeVersion(&oneShot, DefaultVersion, 32); err != nil {
			t.Fatalf("%+v: Stream.Encode: %v", shape, err)
		}
		if !bytes.Equal(oneShot.Bytes(), buf.Bytes()) {
			t.Fatalf("%+v: incremental and one-shot encodings differ", shape)
		}
	}
}

// TestDecodeTruncatedReportsRecordContext pins the "record i of n" error
// contract on both decode paths: truncation inside a block's records and
// truncation at a block boundary each name the first record of the block
// that could not be read and the declared count, and wrap
// io.ErrUnexpectedEOF.
func TestDecodeTruncatedReportsRecordContext(t *testing.T) {
	s := randomStream(rand.New(rand.NewSource(3)), 2, 2*v3BlockRecords+5)
	full := encode(t, s)
	bounds := blockBounds(t, full, s.Table)
	record := func(i int) string { return fmt.Sprintf("record %d of %d", i, len(s.Accesses)) }

	cases := []struct {
		name string
		cut  int
		want string
	}{
		{"mid-record", bounds[1] + v3BlockHdrLen + 7, record(v3BlockRecords + 1)},
		{"record-boundary", bounds[2], record(2*v3BlockRecords + 1)},
		{"empty-section", bounds[0], record(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := full[:tc.cut]

			_, err := DecodeAll(bytes.NewReader(data))
			if err == nil {
				t.Fatal("DecodeAll accepted a truncated stream")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("DecodeAll error %q missing %q", err, tc.want)
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("DecodeAll error %q does not wrap io.ErrUnexpectedEOF", err)
			}

			dec, err := NewDecoder(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("NewDecoder: %v", err)
			}
			var streamErr error
			for {
				_, err := dec.Next()
				if err != nil {
					streamErr = err
					break
				}
			}
			if streamErr == io.EOF {
				t.Fatal("Decoder reached clean EOF on a truncated stream")
			}
			if !strings.Contains(streamErr.Error(), tc.want) {
				t.Errorf("Decoder error %q missing %q", streamErr, tc.want)
			}
			if !errors.Is(streamErr, io.ErrUnexpectedEOF) {
				t.Errorf("Decoder error %q does not wrap io.ErrUnexpectedEOF", streamErr)
			}
			// The failure is sticky: a retry reports the same record, it does
			// not silently resynchronise.
			if _, err := dec.Next(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("second Next after failure = %v, want sticky %q", err, tc.want)
			}
		})
	}
}

func TestEncoderCountContract(t *testing.T) {
	tb := NewTable()
	tb.AddFunc("f", NoRegion)
	var buf bytes.Buffer
	enc, err := NewEncoderVersion(&buf, tb, 2, 0, DefaultVersion)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Access{Time: 1}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err == nil || !strings.Contains(err.Error(), "1 of 2") {
		t.Errorf("short Close = %v, want encoded-count error", err)
	}
	if err := enc.Write(Access{Time: 2}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Access{Time: 3}); err == nil {
		t.Error("Write past the declared count accepted")
	}
	if err := enc.Close(); err != nil {
		t.Fatalf("Close after exact count: %v", err)
	}
	if _, err := NewEncoderVersion(io.Discard, nil, 0, 0, DefaultVersion); err == nil {
		t.Error("NewEncoder accepted a nil table")
	}
	if _, err := NewEncoderVersion(io.Discard, tb, -1, 0, DefaultVersion); err == nil {
		t.Error("NewEncoder accepted a negative count")
	}
}

// TestDecoderDoesNotMaterialise is the memory half of the streaming
// contract: decoding n records performs no per-record heap allocation, so a
// replay's resident set cannot scale with trace length through the decoder.
func TestDecoderDoesNotMaterialise(t *testing.T) {
	data := encode(t, randomStream(rand.New(rand.NewSource(11)), 3, 4096))
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2048, func() {
		if _, err := dec.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Decoder.Next allocates %.1f objects per record, want 0", allocs)
	}
}

func TestDecoderForEachAndProbes(t *testing.T) {
	s := randomStream(rand.New(rand.NewSource(5)), 2, 40)
	data := encode(t, s)
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	dec.Probes = &obs.TraceProbes{DecodedRecords: reg.Counter("trace_decoded_records_total")}
	var got []Access
	if err := dec.ForEach(func(a Access) error {
		got = append(got, a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s.Accesses) {
		t.Fatalf("ForEach yielded %d records, want %d", len(got), len(s.Accesses))
	}
	if v := reg.Counter("trace_decoded_records_total").Value(); v != uint64(len(s.Accesses)) {
		t.Errorf("decode-progress counter = %d, want %d", v, len(s.Accesses))
	}

	// A callback error stops the walk and surfaces unchanged.
	dec2, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop here")
	n := 0
	if err := dec2.ForEach(func(Access) error {
		n++
		if n == 7 {
			return sentinel
		}
		return nil
	}); err != sentinel {
		t.Errorf("ForEach error = %v, want sentinel", err)
	}
	if n != 7 {
		t.Errorf("ForEach continued after error: %d calls", n)
	}
}

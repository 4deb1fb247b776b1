package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// sourceTable builds a region table with real source positions, as the
// instrumenter produces.
func sourceTable() *Table {
	tb := NewTable()
	mainID := tb.AddFunc("main", NoRegion)
	tb.Regions[mainID].File = "main.go"
	tb.Regions[mainID].Line = 10
	loopID := tb.AddLoop("main#for1", mainID)
	tb.Regions[loopID].File = "main.go"
	tb.Regions[loopID].Line = 14
	return tb
}

func TestDynamicRoundTrip(t *testing.T) {
	tb := sourceTable()
	accs := []Access{
		{Time: 1, Addr: 0xc000010000, Size: 8, Thread: 0, Region: 1, Kind: Write},
		{Time: 2, Addr: 0xc000010000, Size: 8, Thread: 2, Region: 1, Kind: Read},
		{Time: 3, Addr: 0xc000010040, Size: 4, Thread: 5, Region: 0, Kind: Read},
	}
	var ms Buffer
	enc, err := NewDynamicEncoder(&ms, tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		if err := enc.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	enc.SetThreads(7) // registered goroutines beyond the max seen in records
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}

	dec, err := NewDecoder(bytes.NewReader(ms.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Threads() != 7 {
		t.Fatalf("Threads() = %d, want 7", dec.Threads())
	}
	if dec.Len() != len(accs) {
		t.Fatalf("Len() = %d, want %d", dec.Len(), len(accs))
	}
	for i, want := range tb.Regions {
		if got := dec.Table().Regions[i]; got != want {
			t.Fatalf("region %d = %+v, want %+v", i, got, want)
		}
	}
	for i, want := range accs {
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
}

func TestDynamicThreadsDerivedFromRecords(t *testing.T) {
	var ms Buffer
	enc, err := NewDynamicEncoder(&ms, sourceTable())
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Access{Thread: 3, Region: NoRegion}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(ms.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Threads() != 4 {
		t.Fatalf("Threads() = %d, want max-thread+1 = 4", dec.Threads())
	}
}

// TestDynamicUnfinalizedRejected is the truncation-safety contract: a
// recording whose process died before Close (header still holds the sentinel
// counts) must be rejected up front, never silently decoded as a complete —
// or worse, empty — run.
func TestDynamicUnfinalizedRejected(t *testing.T) {
	var ms Buffer
	enc, err := NewDynamicEncoder(&ms, sourceTable())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := enc.Write(Access{Time: uint64(i), Thread: int32(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate a crash by flushing the buffered bytes only.
	if err := enc.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err = NewDecoder(bytes.NewReader(ms.Bytes()))
	if err == nil {
		t.Fatal("decoder accepted an unfinalized stream")
	}
	if !strings.Contains(err.Error(), "finalized") {
		t.Fatalf("error %q does not name the finalization failure", err)
	}
}

// TestDynamicTruncatedRecord mirrors the strict sticky-error tests on a
// patched stream: finalized by Close, then cut inside its second block, it
// must decode the first block, fail at the second's first record with
// "record i of n" context wrapping io.ErrUnexpectedEOF, and the error must
// stick.
func TestDynamicTruncatedRecord(t *testing.T) {
	var ms Buffer
	enc, err := NewDynamicEncoder(&ms, sourceTable())
	if err != nil {
		t.Fatal(err)
	}
	const n = v3BlockRecords + 3
	for i := 0; i < n; i++ {
		if err := enc.Write(Access{Time: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	cut := ms.Bytes()[:len(ms.Bytes())-2] // the final block's payload ends short
	dec, err := NewDecoder(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v3BlockRecords; i++ {
		if _, err := dec.Next(); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
	}
	_, err = dec.Next()
	if err == nil {
		t.Fatal("decoder accepted a truncated block")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error %v does not wrap io.ErrUnexpectedEOF", err)
	}
	if want := fmt.Sprintf("record %d of %d", v3BlockRecords+1, n); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not carry record position context %q", err, want)
	}
	if _, err2 := dec.Next(); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("error did not stick: %v then %v", err, err2)
	}
}

// TestCountModesEmitIdenticalBytes pins "one writer": the same records and
// thread count give the same v3 bytes whether the counts were declared up
// front or patched in at Close (into a Buffer that had to grow across several
// blocks), and decoder→encoder — dec.ForEach(enc.Write), the loop behind
// recover — reproduces them a third time.
func TestCountModesEmitIdenticalBytes(t *testing.T) {
	s := uniformStream(2*v3BlockRecords + 500)
	const threads = 11 // more than the 8 that issue accesses
	var declared bytes.Buffer
	if err := s.EncodeVersion(&declared, 3, threads); err != nil {
		t.Fatal(err)
	}

	var patched Buffer
	enc, err := NewDynamicEncoder(&patched, s.Table)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range s.Accesses {
		if err := enc.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	enc.SetThreads(threads)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if enc.Written() != len(s.Accesses) {
		t.Fatalf("Written() = %d, want %d", enc.Written(), len(s.Accesses))
	}
	if !bytes.Equal(patched.Bytes(), declared.Bytes()) {
		t.Fatalf("patched-header stream (%d bytes) differs from the declared-count one (%d bytes)", len(patched.Bytes()), declared.Len())
	}

	dec, err := NewDecoder(bytes.NewReader(patched.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var copied bytes.Buffer
	out, err := NewEncoderVersion(&copied, dec.Table(), dec.Len(), dec.Threads(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.ForEach(out.Write); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(copied.Bytes(), declared.Bytes()) {
		t.Fatal("re-encoding the decoded stream changed its bytes")
	}
}

func TestDynamicWriteAfterClose(t *testing.T) {
	var ms Buffer
	enc, err := NewDynamicEncoder(&ms, NewTable())
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Access{}); err == nil {
		t.Fatal("Write after Close succeeded")
	}
	if err := enc.Close(); err == nil {
		t.Fatal("second Close succeeded")
	}
}

func TestDynamicNegativeThreadRejected(t *testing.T) {
	var ms Buffer
	enc, err := NewDynamicEncoder(&ms, NewTable())
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Access{Thread: -1}); err == nil {
		t.Fatal("negative thread accepted")
	}
}

func TestRegionLabel(t *testing.T) {
	r := Region{Name: "worker"}
	if got := r.Label(); got != "worker" {
		t.Fatalf("Label() = %q, want bare name for synthetic regions", got)
	}
	r.File, r.Line = "pool.go", 42
	if got := r.Label(); got != "worker pool.go:42" {
		t.Fatalf("Label() = %q, want \"worker pool.go:42\"", got)
	}
}

package trace

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func buildSampleTable(t *testing.T) *Table {
	t.Helper()
	tb := NewTable()
	main := tb.AddFunc("main", NoRegion)
	outer := tb.AddLoop("main#0", main)
	inner := tb.AddLoop("main#1", outer)
	daxpy := tb.AddFunc("daxpy", NoRegion)
	dl := tb.AddLoop("daxpy#0", daxpy)
	_ = inner
	_ = dl
	if err := tb.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return tb
}

func TestTableHierarchy(t *testing.T) {
	tb := buildSampleTable(t)
	// IDs: 0=main 1=main#0 2=main#1 3=daxpy 4=daxpy#0, each region's parent
	// the one it was added under.
	var parents []int32
	for i, r := range tb.Regions {
		if r.ID != int32(i) {
			t.Errorf("region %d has ID %d", i, r.ID)
		}
		parents = append(parents, r.Parent)
	}
	if want := []int32{NoRegion, 0, 1, NoRegion, 3}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
}

func TestTableRegionErrors(t *testing.T) {
	tb := buildSampleTable(t)
	if _, err := tb.Region(99); err == nil {
		t.Error("Region(99) should error")
	}
	if _, err := tb.Region(-2); err == nil {
		t.Error("Region(-2) should error")
	}
}

func TestAddWithBadParentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dangling parent")
		}
	}()
	NewTable().AddLoop("x", 5)
}

func TestValidateRejectsCorruptTables(t *testing.T) {
	tb := &Table{Regions: []Region{{ID: 1, Parent: NoRegion, Kind: FuncRegion, Name: "f"}}}
	if err := tb.Validate(); err == nil {
		t.Error("non-dense IDs must fail validation")
	}
	tb2 := &Table{Regions: []Region{
		{ID: 0, Parent: 0, Kind: FuncRegion, Name: "self"},
	}}
	if err := tb2.Validate(); err == nil {
		t.Error("self-parent must fail validation")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tb := buildSampleTable(t)
	s := &Stream{Table: tb, Accesses: []Access{
		{Time: 1, Addr: 0x1000, Size: 8, Thread: 0, Region: 1, Kind: Write},
		{Time: 2, Addr: 0x1000, Size: 8, Thread: 3, Region: 2, Kind: Read},
		{Time: 3, Addr: 0xffffffffffff, Size: 4, Thread: 31, Region: NoRegion, Kind: Read},
	}}
	var buf bytes.Buffer
	if err := s.EncodeVersion(&buf, DefaultVersion, 0); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeAll(&buf)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if !reflect.DeepEqual(got.Table.Regions, tb.Regions) {
		t.Errorf("table mismatch:\n got %+v\nwant %+v", got.Table.Regions, tb.Regions)
	}
	if !reflect.DeepEqual(got.Accesses, s.Accesses) {
		t.Errorf("accesses mismatch:\n got %+v\nwant %+v", got.Accesses, s.Accesses)
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(times []uint64, addrs []uint64, kinds []bool) bool {
		tb := NewTable()
		fn := tb.AddFunc("f", NoRegion)
		lp := tb.AddLoop("f#0", fn)
		n := len(times)
		if len(addrs) < n {
			n = len(addrs)
		}
		if len(kinds) < n {
			n = len(kinds)
		}
		s := &Stream{Table: tb}
		for i := 0; i < n; i++ {
			k := Read
			if kinds[i] {
				k = Write
			}
			s.Accesses = append(s.Accesses, Access{
				Time: times[i], Addr: addrs[i], Size: 8,
				Thread: int32(i % 32), Region: lp, Kind: k,
			})
		}
		var buf bytes.Buffer
		if err := s.EncodeVersion(&buf, DefaultVersion, 0); err != nil {
			return false
		}
		got, err := DecodeAll(&buf)
		if err != nil {
			return false
		}
		if len(got.Accesses) != len(s.Accesses) {
			return false
		}
		for i := range got.Accesses {
			if got.Accesses[i] != s.Accesses[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeAll(bytes.NewReader([]byte("not a trace file....."))); err == nil {
		t.Error("garbage input must fail")
	}
	if _, err := DecodeAll(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must fail")
	}
}

func TestAccessString(t *testing.T) {
	a := Access{Time: 5, Thread: 2, Kind: Write, Addr: 0x40, Size: 8, Region: 1}
	if got := a.String(); got == "" {
		t.Error("empty String()")
	}
	if Read.String() != "R" || Write.String() != "W" {
		t.Error("Kind.String mismatch")
	}
	if FuncRegion.String() != "func" || LoopRegion.String() != "loop" {
		t.Error("RegionKind.String mismatch")
	}
}

func TestDecodeHugeCountHeaderDoesNotOOM(t *testing.T) {
	// Regression for a fuzz finding: a header claiming ~4e9 accesses must
	// fail with a read error, not preallocate gigabytes.
	hdr := []byte("TMPC\x01\x00\x00\x00\x00\x00\x00\x00\xf1\xff\xff\xff")
	if _, err := DecodeAll(bytes.NewReader(hdr)); err == nil {
		t.Fatal("truncated huge-count stream accepted")
	}
}

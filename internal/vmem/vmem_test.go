package vmem

import "testing"

func TestAllocLayout(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("A", 100, 8)
	b := s.Alloc("B", 50, 4)
	if a.BaseAddr < Base {
		t.Fatalf("first region below Base: %#x", a.BaseAddr)
	}
	if a.End() > b.BaseAddr {
		t.Fatalf("regions overlap: A ends %#x, B starts %#x", a.End(), b.BaseAddr)
	}
	if b.BaseAddr%4 != 0 {
		t.Fatalf("B misaligned: %#x", b.BaseAddr)
	}
	if a.SizeBytes() != 800 || b.SizeBytes() != 200 {
		t.Fatalf("sizes wrong: %d, %d", a.SizeBytes(), b.SizeBytes())
	}
	if s.FootprintBytes() != 1000 {
		t.Fatalf("footprint = %d, want 1000", s.FootprintBytes())
	}
}

func TestAddrIndexing(t *testing.T) {
	s := NewSpace()
	r := s.Alloc("M", 16, 8)
	if r.Addr(0) != r.BaseAddr {
		t.Error("Addr(0) != base")
	}
	if r.Addr(3) != r.BaseAddr+24 {
		t.Errorf("Addr(3) = %#x", r.Addr(3))
	}
}

func TestAddrOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewSpace()
	s.Alloc("M", 4, 8).Addr(4)
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewSpace()
	s.Alloc("X", 1, 1)
	s.Alloc("X", 1, 1)
}

func TestZeroAllocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSpace().Alloc("Z", 0, 8)
}

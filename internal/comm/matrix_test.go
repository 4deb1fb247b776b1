package comm

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(4)
	m.Add(0, 1, 8)
	m.Add(0, 1, 8)
	m.Add(3, 2, 100)
	if m.At(0, 1) != 16 || m.At(3, 2) != 100 || m.At(1, 0) != 0 {
		t.Fatalf("cells wrong: %v", m.Rows())
	}
	if m.Total() != 116 {
		t.Fatalf("Total = %d", m.Total())
	}
	if m.NonZeroCells() != 2 {
		t.Fatalf("NonZeroCells = %d", m.NonZeroCells())
	}
	rows := m.RowSums()
	if rows[0] != 16 || rows[3] != 100 || rows[1] != 0 {
		t.Fatalf("RowSums = %v", rows)
	}
}

func TestMatrixBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2).Add(2, 0, 1)
}

func TestNewMatrixInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(0)
}

func TestAddMatrixCloneEqual(t *testing.T) {
	a := NewMatrix(3)
	a.Add(0, 1, 5)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Add(2, 2, 1)
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
	a.AddMatrix(b)
	if a.At(0, 1) != 10 || a.At(2, 2) != 1 {
		t.Fatalf("AddMatrix wrong: %v", a.Rows())
	}
	if a.Equal(nil) || a.Equal(NewMatrix(2)) {
		t.Fatal("Equal must reject nil / size mismatch")
	}
}

func TestAddMatrixDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2).AddMatrix(NewMatrix(3))
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]uint64{{0, 1}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 1 || m.At(1, 0) != 2 {
		t.Fatal("FromRows cells wrong")
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := FromRows([][]uint64{{1}, {2}}); err == nil {
		t.Error("ragged input accepted")
	}
}

func TestRowsRoundTripProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		n := 4
		m := NewMatrix(n)
		for i, v := range vals {
			m.Add(int32(i%n), int32((i/n)%n), uint64(v))
		}
		back, err := FromRows(m.Rows())
		return err == nil && back.Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeatmapAndCSV(t *testing.T) {
	m := NewMatrix(3)
	m.Add(0, 1, 1000)
	m.Add(2, 0, 10)
	h := m.Heatmap()
	if !strings.Contains(h, "@") {
		t.Errorf("heatmap missing max-intensity glyph:\n%s", h)
	}
	if len(strings.Split(strings.TrimSpace(h), "\n")) != 4 { // header + 3 rows
		t.Errorf("heatmap row count wrong:\n%s", h)
	}
}

func BenchmarkMatrixAdd(b *testing.B) {
	m := NewMatrix(32)
	for i := 0; i < b.N; i++ {
		m.Add(int32(i&31), int32((i>>5)&31), 8)
	}
}

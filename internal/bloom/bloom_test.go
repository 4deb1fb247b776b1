package bloom

import (
	"sync"
	"testing"
	"testing/quick"
)

// contains reports whether v may be in the set fl holds after inserting
// members, without changing fl: Add's answer on a twin that holds the same
// members.
func contains(fl *Filter, members []uint64, v uint64) bool {
	twin := New(Params{Bits: fl.bits.Len(), Hashes: fl.k}, fl.seed)
	for _, m := range members {
		twin.Add(m)
	}
	return twin.Add(v)
}

func TestDeriveGeometry(t *testing.T) {
	cases := []struct {
		capacity uint64
		fp       float64
		minBits  uint64
		maxK     int
	}{
		{32, 0.001, 32, 32}, // paper operating point: t=32, FPRate=0.001
		{1, 0.01, 8, 32},    // tiny capacity still gets the 8-bit floor
		{1000, 0.05, 1000, 32},
	}
	for _, c := range cases {
		p := Derive(c.capacity, c.fp)
		if p.Bits < c.minBits {
			t.Errorf("Derive(%d,%g).Bits = %d, want >= %d", c.capacity, c.fp, p.Bits, c.minBits)
		}
		if p.Hashes < 1 || p.Hashes > c.maxK {
			t.Errorf("Derive(%d,%g).Hashes = %d out of range", c.capacity, c.fp, p.Hashes)
		}
	}
}

func TestDeriveClampsDegenerateInputs(t *testing.T) {
	for _, p := range []Params{Derive(0, 0.01), Derive(10, 0), Derive(10, 0.99), Derive(10, -3)} {
		if p.Bits == 0 || p.Hashes < 1 {
			t.Errorf("degenerate input produced unusable geometry %+v", p)
		}
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f := func(elems []uint64) bool {
		fl := New(Derive(64, 0.01), 1)
		for _, e := range elems {
			fl.Add(e % 64)
		}
		for _, e := range elems {
			if !fl.Add(e % 64) { // a member's bits are set: Add changes nothing
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	p := Derive(32, 0.001)
	for v := uint64(0); v < 1000; v++ {
		if New(p, 0).Add(v) {
			t.Fatalf("empty filter claims to contain %d", v)
		}
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	// Insert exactly the design capacity and measure the observed FP rate on
	// fresh elements; it should be within ~4x of the target (bloom math is
	// asymptotic, so allow slack).
	const capacity = 32
	const target = 0.01
	fl := New(Derive(capacity, target), 12345)
	members := make([]uint64, capacity)
	for v := range members {
		members[v] = uint64(v)
		fl.Add(uint64(v))
	}
	fp := 0
	const probes = 100000
	for v := uint64(capacity); v < capacity+probes; v++ {
		if contains(fl, members, v) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 4*target {
		t.Fatalf("observed FP rate %v exceeds 4x target %v", rate, target)
	}
}

func TestAddReportsPresence(t *testing.T) {
	fl := New(Derive(32, 0.001), 9)
	if fl.Add(7) {
		t.Fatal("first Add reported element present")
	}
	if !fl.Add(7) {
		t.Fatal("second Add did not report element present")
	}
}

func TestReset(t *testing.T) {
	fl := New(Derive(32, 0.001), 3)
	for v := uint64(0); v < 32; v++ {
		fl.Add(v)
	}
	fl.Reset()
	// A reset filter answers every insert as a fresh one does.
	fresh := New(Derive(32, 0.001), 3)
	for v := uint64(0); v < 32; v++ {
		if got, want := fl.Add(v), fresh.Add(v); got != want {
			t.Fatalf("Add(%d) after Reset = %v, fresh filter %v", v, got, want)
		}
	}
}

func TestConcurrentAddNoFalseNegatives(t *testing.T) {
	fl := New(Derive(1024, 0.01), 17)
	var wg sync.WaitGroup
	const workers = 8
	const per = 128
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				fl.Add(uint64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	for v := uint64(0); v < workers*per; v++ {
		if !fl.Add(v) {
			t.Fatalf("lost element %d under concurrent insertion", v)
		}
	}
}

func TestSizeBytesMatchesGeometry(t *testing.T) {
	p := Params{Bits: 512, Hashes: 4}
	fl := New(p, 0)
	if fl.bits.Len() != 512 || fl.k != 4 {
		t.Fatalf("geometry mismatch: %d/%d", fl.bits.Len(), fl.k)
	}
}

func BenchmarkAdd(b *testing.B) {
	fl := New(Derive(32, 0.001), 0)
	for i := 0; i < b.N; i++ {
		fl.Add(uint64(i) & 31)
	}
}

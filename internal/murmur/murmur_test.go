package murmur

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

// Reference vectors for MurmurHash3 x64_128 from the canonical implementation.
func TestSum128Vectors(t *testing.T) {
	cases := []struct {
		data   string
		seed   uint64
		wantH1 uint64
		wantH2 uint64
	}{
		{"", 0, 0, 0},
		{"hello", 0, 0xcbd8a7b341bd9b02, 0x5b1e906a48ae1d19},
		{"hello, world", 0, 0x342fac623a5ebc8e, 0x4cdcbc079642414d},
		{"19 Jan 2038 at 3:14:07 AM", 0, 0xb89e5988b737affc, 0x664fc2950231b2cb},
		{"The quick brown fox jumps over the lazy dog.", 0, 0xcd99481f9ee902c9, 0x695da1a38987b6e7},
	}
	for _, c := range cases {
		h1, h2 := Sum128([]byte(c.data), c.seed)
		if h1 != c.wantH1 || h2 != c.wantH2 {
			t.Errorf("Sum128(%q) = (%#x, %#x), want (%#x, %#x)", c.data, h1, h2, c.wantH1, c.wantH2)
		}
	}
}

func TestSum128TailLengths(t *testing.T) {
	// Exercise every tail-switch arm (lengths 0..16) and check determinism
	// plus sensitivity to the final byte.
	buf := make([]byte, 17)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	for n := 0; n <= 16; n++ {
		h1a, h2a := Sum128(buf[:n], 42)
		h1b, h2b := Sum128(buf[:n], 42)
		if h1a != h1b || h2a != h2b {
			t.Fatalf("len %d: nondeterministic", n)
		}
		if n > 0 {
			mod := append([]byte(nil), buf[:n]...)
			mod[n-1] ^= 0xff
			m1, m2 := Sum128(mod, 42)
			if m1 == h1a && m2 == h2a {
				t.Errorf("len %d: hash insensitive to last byte", n)
			}
		}
	}
}

func TestHashAddrMatchesSum128(t *testing.T) {
	// HashAddr must be exactly the allocation-free specialisation of
	// Sum128 over the 8 little-endian bytes of the address: its result is
	// the first 64-bit half of the 128-bit digest.
	f := func(addr, seed uint64) bool {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], addr)
		h1, _ := Sum128(b[:], seed)
		return HashAddr(addr, seed) == h1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashAddrPairMatchesSum128(t *testing.T) {
	// The fused signature addressing depends on HashAddrPair being exactly
	// the two halves of Sum128 over the 8 little-endian address bytes: the
	// first half is the historical read-slot hash (= HashAddr), the second
	// is an independent digest half free for the write slot.
	f := func(addr, seed uint64) bool {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], addr)
		h1, h2 := Sum128(b[:], seed)
		p1, p2 := HashAddrPair(addr, seed)
		return p1 == h1 && p2 == h2 && p1 == HashAddr(addr, seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashAddrPairIndependent(t *testing.T) {
	// The two probe hashes must differ for essentially all inputs, otherwise
	// double hashing would degenerate to a single probe.
	same := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		a, b := HashAddrPair(uint64(i)*2654435761, 7)
		if a == b {
			same++
		}
	}
	if same > 1 {
		t.Errorf("HashAddrPair halves collided %d/%d times", same, trials)
	}
}

func TestSeedChangesHash(t *testing.T) {
	data := []byte("signature slot")
	a1, _ := Sum128(data, 1)
	b1, _ := Sum128(data, 2)
	if a1 == b1 {
		t.Error("Sum128: different seeds produced identical hashes")
	}
}

func TestHashAddrDistribution(t *testing.T) {
	// Sequential addresses (the common workload case: array sweeps) must
	// spread evenly over a power-of-two slot space.
	const slots = 1 << 12
	counts := make([]int, slots)
	const n = slots * 64
	for i := 0; i < n; i++ {
		counts[HashAddr(uint64(0x1000+8*i), 0)%slots]++
	}
	// Chi-squared-ish sanity bound: each bucket within 4x of the mean.
	mean := n / slots
	for i, c := range counts {
		if c > 4*mean || c < mean/4 {
			t.Fatalf("bucket %d has %d entries, mean %d: poor distribution", i, c, mean)
		}
	}
}

func BenchmarkHashAddr(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += HashAddr(uint64(i)*8+0xdeadbeef, 0)
	}
	_ = sink
}

func BenchmarkSum128_64B(b *testing.B) {
	data := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		Sum128(data, uint64(i))
	}
}

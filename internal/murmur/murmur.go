// Package murmur implements the MurmurHash3 family of non-cryptographic hash
// functions (Austin Appleby, public domain). The paper's asymmetric signature
// memory addresses its slot arrays with MurmurHash because of its low time
// complexity and low collision rate compared with other hash functions
// (§IV-D2); this package provides the 128-bit x64 variant plus allocation-free
// helpers for hashing 64-bit memory addresses.
package murmur

import "math/bits"

const (
	c1_64 uint64 = 0x87c37b91114253d5
	c2_64 uint64 = 0x4cf5ad432745937f
)

// Sum128 computes the 128-bit x64 MurmurHash3 of data with the given seed,
// returning the two 64-bit halves. Nothing outside the tests calls it: it is
// the reference implementation HashAddr and HashAddrPair are pinned against.
func Sum128(data []byte, seed uint64) (uint64, uint64) {
	h1, h2 := seed, seed
	n := len(data)
	i := 0
	for ; i+16 <= n; i += 16 {
		k1 := le64(data[i:])
		k2 := le64(data[i+8:])

		k1 *= c1_64
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= c2_64
		h1 ^= k1
		h1 = bits.RotateLeft64(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729

		k2 *= c2_64
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= c1_64
		h2 ^= k2
		h2 = bits.RotateLeft64(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}

	var k1, k2 uint64
	tail := data[i:]
	switch len(tail) {
	case 15:
		k2 ^= uint64(tail[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(tail[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(tail[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(tail[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(tail[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(tail[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(tail[8])
		k2 *= c2_64
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= c1_64
		h2 ^= k2
		fallthrough
	case 8:
		k1 ^= uint64(tail[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(tail[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(tail[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(tail[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(tail[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(tail[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(tail[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(tail[0])
		k1 *= c1_64
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= c2_64
		h1 ^= k1
	}

	h1 ^= uint64(n)
	h2 ^= uint64(n)
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Mix64 applies MurmurHash3's 64-bit finalizer (fmix64) to x: an invertible
// full-avalanche mix, far cheaper than a hash pass. The paper's signature
// layout (sig.Bloom) re-mixes HashAddrPair's second half with its write seed
// through it, so its write-slot mapping keeps the collision statistics of an
// independent hash without paying for one.
func Mix64(x uint64) uint64 { return fmix64(x) }

// HashAddr hashes a 64-bit memory address with the given seed. It inlines the
// 8-byte body of Sum128's first half, avoiding a byte-slice allocation on the
// profiler's hot path (every instrumented memory access hashes at least once).
func HashAddr(addr uint64, seed uint64) uint64 {
	h1, h2 := seed, seed
	k1 := addr
	k1 *= c1_64
	k1 = bits.RotateLeft64(k1, 31)
	k1 *= c2_64
	h1 ^= k1
	h1 ^= 8
	h2 ^= 8
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	return h1 + h2
}

// HashAddrPair returns two independent 64-bit hashes of addr — exactly the
// two halves of the 128-bit x64 MurmurHash3 digest of the address's 8
// little-endian bytes, computed in one allocation-free pass. The bloom filter
// double-hashes with it to derive its k probe positions, and the paper's
// signature layout (sig.Bloom) fuses its read-slot and write-slot addressing
// into this single call: the first half reproduces HashAddr (the read-array
// hash) bit for bit, the second half addresses the write array.
func HashAddrPair(addr uint64, seed uint64) (uint64, uint64) {
	h1, h2 := seed, seed
	k1 := addr
	k1 *= c1_64
	k1 = bits.RotateLeft64(k1, 31)
	k1 *= c2_64
	h1 ^= k1
	h1 ^= 8
	h2 ^= 8
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	return h1 + h2, h2 + h1 + h2
}

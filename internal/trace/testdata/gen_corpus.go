//go:build ignore

// Generates the committed fuzz seed corpora under testdata/fuzz/. Each file
// is in the Go fuzzing corpus format ("go test fuzz v1") so `go test -fuzz`
// picks it up alongside the f.Add seeds. Run from internal/trace:
//
//	go run testdata/gen_corpus.go
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"strconv"
)

func main() {
	// A valid stream built against the wire format directly, so this
	// generator has no dependency on the package under test: 20-byte header,
	// one region (file:line after the name), then a single CRC-framed varint
	// block.
	v3 := buildV3Stream()
	v3Truncated := v3[:len(v3)-6] // cuts inside the block payload
	v3BadCRC := append([]byte(nil), v3...)
	v3BadCRC[len(v3BadCRC)-1] ^= 0x01 // payload flip -> checksum mismatch
	v3Unfinalized := append([]byte(nil), v3...)
	for i := 12; i < 20; i++ { // access + thread counts left unpatched
		v3Unfinalized[i] = 0xFF
	}
	v3BadCount := append([]byte(nil), v3...)
	v3BadCount[12] ^= 0x40 // access count

	byteSeeds := map[string][][]byte{
		"FuzzDecode":    {v3, v3Truncated, v3BadCount},
		"FuzzDecoder":   {v3, v3Truncated, v3BadCount, v3[:20]},
		"FuzzV3Decoder": {v3, v3Truncated, v3BadCRC, v3Unfinalized, v3[:20]},
	}
	for target, seeds := range byteSeeds {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		for i, seed := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d", i)), []byte(body), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}

	// FuzzStreamRoundTrip and FuzzV3RoundTrip take generator parameters, not
	// raw bytes: (seed int64, nRegions byte, nAccesses, cut, xorPos uint16,
	// xor byte).
	paramSeeds := map[string][][]any{
		"FuzzStreamRoundTrip": {
			{int64(99), byte(5), uint16(200), uint16(100), uint16(30), byte(0x01)},
			{int64(-1), byte(15), uint16(1023), uint16(500), uint16(16), byte(0xff)},
			{int64(0), byte(0), uint16(1), uint16(20), uint16(28), byte(0x10)},
		},
		"FuzzV3RoundTrip": {
			{int64(1234), byte(7), uint16(900), uint16(64), uint16(5), byte(0x20)},
			// Crosses the 4096-record block boundary.
			{int64(-5), byte(2), uint16(4097), uint16(0), uint16(0), byte(0)},
			{int64(8), byte(0), uint16(100), uint16(60), uint16(25), byte(0x04)},
		},
	}
	for target, seeds := range paramSeeds {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		for i, vals := range seeds {
			body := "go test fuzz v1\n"
			for _, v := range vals {
				switch v := v.(type) {
				case int64:
					body += fmt.Sprintf("int64(%d)\n", v)
				case byte:
					body += fmt.Sprintf("byte(%#x)\n", v)
				case uint16:
					body += fmt.Sprintf("uint16(%d)\n", v)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d", i)), []byte(body), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// buildV3Stream assembles a four-access, one-region v3 stream byte by byte.
// The access block exercises both record shapes: explicit-field records (tag
// 0x00) and fully predicted single-tag-byte records (thread, stride and
// size/region all matching the per-thread context).
func buildV3Stream() []byte {
	var buf bytes.Buffer
	le := binary.LittleEndian
	hdr := make([]byte, 20)
	le.PutUint32(hdr[0:], 0x43504d54) // "CPMT"
	le.PutUint32(hdr[4:], 3)          // version
	le.PutUint32(hdr[8:], 1)          // regions
	le.PutUint32(hdr[12:], 4)         // accesses
	le.PutUint32(hdr[16:], 2)         // threads
	buf.Write(hdr)
	writeRegion(&buf, 0, -1, 0, "main")
	writeStr(&buf, "main.go") // regions carry file:line
	var line [4]byte
	le.PutUint32(line[:], 7)
	buf.Write(line[:])

	var p []byte
	// Record 0: thread 0, time 5, addr 0x1000, size 8, region 0, read.
	// Fresh context predicts zeros, so every field is explicit.
	p = append(p, 0x00)
	p = binary.AppendUvarint(p, 0)     // thread
	p = binary.AppendVarint(p, 5)      // time delta
	p = binary.AppendVarint(p, 0x1000) // addr delta
	p = binary.AppendUvarint(p, 8)     // size
	p = binary.AppendVarint(p, 0)      // region
	p = append(p, 0x3F)                // rec 1: write, all predicted (time 10, addr 0x2000)
	p = append(p, 0x3E)                // rec 2: read, all predicted (time 15, addr 0x3000)
	p = append(p, 0x00)                // rec 3: thread 1, everything explicit again
	p = binary.AppendUvarint(p, 1)     // thread
	p = binary.AppendVarint(p, 3)      // time delta
	p = binary.AppendVarint(p, 0x2000) // addr delta
	p = binary.AppendUvarint(p, 4)     // size
	p = binary.AppendVarint(p, 0)      // region
	blkHdr := make([]byte, 12)
	le.PutUint32(blkHdr[0:], 4)
	le.PutUint32(blkHdr[4:], uint32(len(p)))
	le.PutUint32(blkHdr[8:], crc32.ChecksumIEEE(p))
	buf.Write(blkHdr)
	buf.Write(p)
	return buf.Bytes()
}

func writeStr(buf *bytes.Buffer, s string) {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(s)))
	buf.Write(l[:])
	buf.WriteString(s)
}

func writeRegion(buf *bytes.Buffer, id, parent int32, kind byte, name string) {
	var b [9]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(id))
	binary.LittleEndian.PutUint32(b[4:], uint32(parent))
	b[8] = kind
	buf.Write(b[:])
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(name)))
	buf.Write(l[:])
	buf.WriteString(name)
}

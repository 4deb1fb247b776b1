package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Codec v3: the compact block format. After the 20-byte header and the
// region table (stream.go), the access section is a sequence of framed
// blocks:
//
//	block header  12 bytes: record count, payload length, CRC32 (IEEE) of
//	              the payload
//	payload       record-count variable-length records
//
// Each record starts with a one-byte tag; the remaining fields appear only
// when the matching tag bit says the value is not predicted:
//
//	bit 0  kind is Write (Read otherwise)
//	bit 1  thread equals the previous record's thread (else uvarint thread)
//	bit 2  time equals the per-thread stride prediction (else svarint delta)
//	bit 3  addr equals the per-thread stride prediction (else svarint delta)
//	bit 4  size equals the thread's previous size (else uvarint size)
//	bit 5  region equals the thread's previous region (else svarint region)
//	bits 6-7 reserved, must be zero
//
// Stride prediction: each thread carries (lastTime, timeStride, lastAddr,
// addrStride); the predicted value is last+stride, and after every record
// stride is updated to the realised delta. All delta arithmetic is modulo
// 2^64, so arbitrary values round-trip exactly. A thread's first record in
// a block predicts from the fresh context (last 0, stride 0, size 0, region
// NoRegion). Deltas use the standard zig-zag signed varint encoding.
//
// Contexts reset at every block boundary, which makes each block
// self-contained: a CRC-verified block decodes independently of its
// predecessors, so a truncated tail costs at most one partial block
// (the salvage property NewDecoderTolerant relies on).
//
// The common record — same thread as its predecessor, time and addr on
// stride, size and region unchanged — is a single tag byte; a thread
// switch adds one or two more. That is the 29 → ~2-4 byte win.

const (
	// v3BlockRecords is the encoder's flush threshold: a block closes after
	// this many records. Worst-case record size is 1+3+10+10+5+10 bytes, so
	// a full block stays well under v3MaxBlockBytes.
	v3BlockRecords = 4096
	// v3MaxBlockRecords caps a decoded block's declared record count; the
	// count is untrusted input.
	v3MaxBlockRecords = 1 << 16
	// v3MaxBlockBytes caps a decoded block's declared payload length.
	v3MaxBlockBytes = 1 << 20
	// v3MaxThreads caps Access.Thread in the v3 format (encode and decode).
	v3MaxThreads = 1 << 16
	// v3BlockHdrLen is the framed block header length.
	v3BlockHdrLen = 12
)

// Record tag bits.
const (
	v3TagWrite      = 1 << 0
	v3TagSameThread = 1 << 1
	v3TagTimePred   = 1 << 2
	v3TagAddrPred   = 1 << 3
	v3TagSameSize   = 1 << 4
	v3TagSameRegion = 1 << 5
	v3TagReserved   = 0xC0
)

// v3Ctx is one thread's prediction context. Contexts are epoch-tagged so a
// block boundary resets every thread in O(1) (bump the epoch) instead of
// clearing the whole table.
type v3Ctx struct {
	epoch      uint32
	lastTime   uint64
	timeStride uint64
	lastAddr   uint64
	addrStride uint64
	size       uint32
	region     int32
}

// v3Ctxs is the shared per-thread context table (encoder and decoder sides
// carry one each; the two stay in lockstep by construction).
type v3Ctxs struct {
	ctxs       []v3Ctx
	epoch      uint32
	prevThread int32
	hasPrev    bool
}

// reset starts a new block: every context is logically fresh.
func (t *v3Ctxs) reset() {
	t.epoch++
	t.hasPrev = false
}

// ctx returns thread's context, freshly initialised if it has not been
// touched this block. thread must already be range-checked.
func (t *v3Ctxs) ctx(thread int32) *v3Ctx {
	if int(thread) >= len(t.ctxs) {
		grown := make([]v3Ctx, thread+1)
		copy(grown, t.ctxs)
		t.ctxs = grown
	}
	c := &t.ctxs[thread]
	if c.epoch != t.epoch {
		*c = v3Ctx{epoch: t.epoch, region: NoRegion}
	}
	return c
}

// v3BlockWriter stages one block's worth of compact records.
type v3BlockWriter struct {
	payload   []byte
	recs      uint32
	maxThread int32 // largest thread encoded since the writer was built; -1 before the first record
	v3Ctxs
}

func newV3BlockWriter() *v3BlockWriter {
	w := &v3BlockWriter{maxThread: -1}
	w.reset()
	return w
}

// appendBatch encodes batch into the staged payload and returns how many
// records it encoded and, for the first record it refuses, the cause, which
// the Encoder prefixes with the record's number. The caller keeps the block
// within v3BlockRecords. It is the one v3 record
// encoder, and one call per block/batch intersection replaces a call chain
// per record: the payload and the previous thread stay in locals, and the
// thread's context is fetched again only when the thread changes (the
// pointer stays valid until then: only ctx grows the table).
func (w *v3BlockWriter) appendBatch(batch []Access) (int, error) {
	p, prev, hasPrev := w.payload, w.prevThread, w.hasPrev
	var c *v3Ctx
	if hasPrev {
		c = w.ctx(prev)
	}
	var err error
	i := 0
	for ; i < len(batch); i++ {
		a := &batch[i]
		same := hasPrev && a.Thread == prev
		if !same && (a.Thread < 0 || a.Thread >= v3MaxThreads) {
			err = fmt.Errorf("trace: v3 record thread %d outside [0, %d)", a.Thread, v3MaxThreads)
			break
		}
		if a.Kind != Read && a.Kind != Write {
			err = fmt.Errorf("trace: v3 record kind %d not encodable (read/write only)", a.Kind)
			break
		}
		tag := byte(a.Kind) // v3TagWrite is Write's value
		if same {
			tag |= v3TagSameThread
		} else {
			c, prev, hasPrev = w.ctx(a.Thread), a.Thread, true
			w.maxThread = max(w.maxThread, a.Thread)
		}
		predTime, predAddr := c.lastTime+c.timeStride, c.lastAddr+c.addrStride
		if a.Time == predTime {
			tag |= v3TagTimePred
		}
		if a.Addr == predAddr {
			tag |= v3TagAddrPred
		}
		if a.Size == c.size {
			tag |= v3TagSameSize
		}
		if a.Region == c.region {
			tag |= v3TagSameRegion
		}
		p = append(p, tag)
		if tag&v3TagSameThread == 0 {
			p = binary.AppendUvarint(p, uint64(uint32(a.Thread)))
		}
		if tag&v3TagTimePred == 0 {
			p = binary.AppendVarint(p, int64(a.Time-predTime))
		}
		if tag&v3TagAddrPred == 0 {
			p = binary.AppendVarint(p, int64(a.Addr-predAddr))
		}
		if tag&v3TagSameSize == 0 {
			p = binary.AppendUvarint(p, uint64(a.Size))
		}
		if tag&v3TagSameRegion == 0 {
			p = binary.AppendVarint(p, int64(a.Region))
		}
		c.timeStride, c.lastTime = a.Time-c.lastTime, a.Time
		c.addrStride, c.lastAddr = a.Addr-c.lastAddr, a.Addr
		c.size, c.region = a.Size, a.Region
	}
	w.payload, w.prevThread, w.hasPrev = p, prev, hasPrev
	w.recs += uint32(i)
	return i, err
}

// full reports whether the staged block has reached the flush threshold.
func (w *v3BlockWriter) full() bool { return w.recs >= v3BlockRecords }

// flush frames the staged payload (header + CRC) into out and resets the
// writer for the next block. A no-op on an empty stage. Returns the number
// of records flushed.
func (w *v3BlockWriter) flush(out io.Writer) (int, error) {
	if w.recs == 0 {
		return 0, nil
	}
	var hdr [v3BlockHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], w.recs)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(w.payload)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(w.payload))
	if _, err := out.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("trace: write block header: %w", err)
	}
	if _, err := out.Write(w.payload); err != nil {
		return 0, fmt.Errorf("trace: write block payload: %w", err)
	}
	n := int(w.recs)
	w.payload = w.payload[:0]
	w.recs = 0
	w.reset()
	return n, nil
}

// v3BlockReader decodes records out of one verified block payload.
type v3BlockReader struct {
	payload []byte
	pos     int
	left    uint32 // records remaining in the current block
	v3Ctxs
}

// begin installs a freshly read payload of recs records.
func (r *v3BlockReader) begin(recs uint32) {
	r.pos = 0
	r.left = recs
	r.reset()
}

// decodeInto decodes up to len(out) records of the current block into out,
// returning how many succeeded and the first error: a bare cause, which the
// Decoder wraps with "record i of n" context. It is the one v3 record
// decoder, and one call per block/batch intersection replaces a call chain
// per record. The payload and position stay in locals, one- and two-byte
// varints (the usual thread, size and region fields and time deltas) decode
// inline, and each field is stored straight into out[i]: assembling an
// Access and copying it whole is a wide load over narrow stores, which the
// core cannot forward (see detect.Process).
func (r *v3BlockReader) decodeInto(out []Access) (int, error) {
	p, pos := r.payload, r.pos
	var err error
	i := 0
	for ; i < len(out); i++ {
		if pos >= len(p) {
			err = fmt.Errorf("block payload exhausted with %d records undecoded", r.left)
			break
		}
		tag := p[pos]
		pos++
		if tag&v3TagReserved != 0 {
			err = fmt.Errorf("reserved tag bits %#x set", tag&v3TagReserved)
			break
		}
		thread := r.prevThread
		if tag&v3TagSameThread == 0 {
			v, n := shortUvarint(p, pos)
			if n == 0 {
				if v, n = binary.Uvarint(p[pos:]); n <= 0 {
					err = varintErr(n, pos)
					break
				}
			}
			if pos += n; v >= v3MaxThreads {
				err = fmt.Errorf("thread %d outside [0, %d)", v, v3MaxThreads)
				break
			}
			thread = int32(v)
		} else if !r.hasPrev {
			err = fmt.Errorf("same-thread tag on the block's first record")
			break
		}
		c := r.ctx(thread)
		tm, addr, size, region := c.lastTime+c.timeStride, c.lastAddr+c.addrStride, c.size, c.region
		if tag&v3TagTimePred == 0 {
			v, n := shortUvarint(p, pos)
			if n == 0 {
				if v, n = binary.Uvarint(p[pos:]); n <= 0 {
					err = varintErr(n, pos)
					break
				}
			}
			pos += n
			tm += v>>1 ^ -(v & 1) // zig-zag
		}
		if tag&v3TagAddrPred == 0 {
			v, n := shortUvarint(p, pos)
			if n == 0 {
				if v, n = binary.Uvarint(p[pos:]); n <= 0 {
					err = varintErr(n, pos)
					break
				}
			}
			pos += n
			addr += v>>1 ^ -(v & 1)
		}
		if tag&v3TagSameSize == 0 {
			v, n := shortUvarint(p, pos)
			if n == 0 {
				if v, n = binary.Uvarint(p[pos:]); n <= 0 {
					err = varintErr(n, pos)
					break
				}
			}
			if pos += n; v > math.MaxUint32 {
				err = fmt.Errorf("size %d overflows 32 bits", v)
				break
			}
			size = uint32(v)
		}
		if tag&v3TagSameRegion == 0 {
			v, n := shortUvarint(p, pos)
			if n == 0 {
				if v, n = binary.Uvarint(p[pos:]); n <= 0 {
					err = varintErr(n, pos)
					break
				}
			}
			d := int64(v>>1) ^ -int64(v&1)
			if pos += n; d < math.MinInt32 || d > math.MaxInt32 {
				err = fmt.Errorf("region %d overflows 32 bits", d)
				break
			}
			region = int32(d)
		}
		a := &out[i]
		a.Time, a.Addr, a.Size, a.Thread, a.Region, a.Kind = tm, addr, size, thread, region, Kind(tag&v3TagWrite)
		c.timeStride, c.lastTime = tm-c.lastTime, tm
		c.addrStride, c.lastAddr = addr-c.lastAddr, addr
		c.size, c.region = size, region
		r.prevThread, r.hasPrev = thread, true
		if r.left--; r.left == 0 && pos != len(p) {
			err = fmt.Errorf("%d trailing bytes after the block's last record", len(p)-pos)
			break
		}
	}
	r.pos = pos
	return i, err
}

// shortUvarint reads the uvarint at p[pos:] when it is one or two bytes long;
// n is 0 otherwise, and the caller falls back to binary.Uvarint.
func shortUvarint(p []byte, pos int) (v uint64, n int) {
	if pos < len(p) {
		if b := p[pos]; b < 0x80 {
			return uint64(b), 1
		} else if pos+1 < len(p) && p[pos+1] < 0x80 {
			return uint64(b&0x7f) | uint64(p[pos+1])<<7, 2
		}
	}
	return 0, 0
}

// varintErr is the error for the varint at block offset pos that
// binary.Uvarint rejected with n (0: truncated, negative: overflows 64 bits).
func varintErr(n, pos int) error {
	if n == 0 {
		return fmt.Errorf("varint truncated at block offset %d", pos)
	}
	return fmt.Errorf("varint at block offset %d overflows 64 bits", pos)
}

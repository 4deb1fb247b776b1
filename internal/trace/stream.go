package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"commprof/internal/obs"
)

// This file is the incremental half of the codec: an Encoder that writes the
// binary trace format a batch at a time, and a Decoder that reads it back the
// same way (DESIGN §9 has the byte-level spec). There is one format, v3: a
// 20-byte header (magic "CPMT", version, region count, access count, thread
// count), the region table with file:line per region, and an access section
// framed into CRC-checked blocks of delta/varint records (see v3.go). A
// stream declaring any other version is refused by name.
//
// The point of the split is memory: replaying a recorded trace only ever
// needs the decoded batches in flight to the analyser plus the bounded shard
// queues, so decoding must not materialise the whole access section first. A Decoder holds the region table (small, static) and one
// block buffer at most; resident memory is O(region table + one block).
//
// Error semantics are strict: any truncated or corrupt access record fails
// with a "record i of n" error (1-based, n the header's declared count), and
// a clean end before n records is reported the same way wrapping
// io.ErrUnexpectedEOF. io.EOF from NextBatch means exactly "all n records
// decoded". NewDecoderTolerant relaxes this for salvage: decode errors end
// the stream early instead of failing, and the suppressed cause is kept for
// the caller (see NewDecoderTolerant).

// telemetryFlushEvery bounds how many encoded records may accumulate locally
// before the per-stream counter is published to the shared probe — the
// batching that replaces one atomic add per record.
const telemetryFlushEvery = 256

// Encoder writes a trace stream incrementally: header and region table up
// front, then the access records of each WriteBatch or Write call. It is the
// only trace writer, in one of two count modes.
//
// Declared (NewEncoderVersion): the access and thread counts go into the
// header at construction, so any io.Writer will do; Close verifies the caller
// delivered exactly the declared number of records.
//
// Patched (NewDynamicEncoder): for producers that learn their counts only
// when the run ends — the real-program shim, which discovers goroutines as
// they first touch shared memory; Record's tap; a salvage. The header goes
// out with both counts set to the unpatched sentinel and Close seeks back and
// patches the final values in place. A stream whose writer died before Close
// therefore still carries the sentinel, and NewDecoder rejects it as never
// finalized instead of decoding a truncated prefix as a complete run
// (NewDecoderTolerant salvages it on request).
type Encoder struct {
	// Probes, when non-nil, receives encode-progress telemetry (batched, one
	// publish per v3 block or telemetryFlushEvery records). Set it before the
	// first write.
	Probes *obs.TraceProbes

	bw      *bufio.Writer
	ws      io.WriteSeeker // patched mode: where Close patches the counts; nil when declared
	n, i    uint32         // records the stream may hold (declared count, or the format's capacity); records written
	blk     *v3BlockWriter // records staged for the next block
	pending uint32         // records not yet published to Probes
	threads int            // SetThreads floor for the patched thread count
	closed  bool
	err     error // sticky failure
}

// NewEncoderVersion writes a stream header and region table in the given
// format version to w and returns an encoder expecting exactly accesses Write
// calls. version must be DefaultVersion, the one format. threads
// is the header thread count; pass the recorded thread count, or 0 if it is
// unknown — decoders treat 0 as "the caller supplies it".
func NewEncoderVersion(w io.Writer, table *Table, accesses, threads, version int) (*Encoder, error) {
	if version != DefaultVersion {
		return nil, fmt.Errorf("trace: cannot encode version %d: only v%d is written", version, DefaultVersion)
	}
	if accesses < 0 || uint64(accesses) >= countUnpatched {
		return nil, fmt.Errorf("trace: access count %d outside the format's range", accesses)
	}
	if threads < 0 || uint64(threads) >= countUnpatched {
		return nil, fmt.Errorf("trace: thread count %d outside the format's range", threads)
	}
	return newEncoder(w, table, uint32(accesses), uint32(threads))
}

// NewDynamicEncoder writes a stream header (with sentinel counts) and region
// table to ws and returns an encoder accepting any number of Write calls. ws
// must be seekable so Close can patch the header: a file, or a Buffer when
// the destination cannot seek.
func NewDynamicEncoder(ws io.WriteSeeker, table *Table) (*Encoder, error) {
	e, err := newEncoder(ws, table, countUnpatched, countUnpatched)
	if err != nil {
		return nil, err
	}
	e.ws, e.n = ws, countUnpatched-1
	return e, nil
}

func newEncoder(w io.Writer, table *Table, accesses, threads uint32) (*Encoder, error) {
	if table == nil {
		return nil, fmt.Errorf("trace: encoder requires a region table")
	}
	if err := table.Validate(); err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(w)
	if err := writeHeaderAndTable(bw, table, accesses, threads); err != nil {
		return nil, err
	}
	return &Encoder{bw: bw, n: accesses, blk: newV3BlockWriter()}, nil
}

// writeHeaderAndTable emits the 20-byte v3 stream header (magic, version,
// region count, access count, thread count) and the region table, per region
// id/parent/kind/name and file:line.
func writeHeaderAndTable(bw *bufio.Writer, table *Table, accesses, threads uint32) error {
	hdr := make([]byte, 0, headerLen)
	hdr = binary.LittleEndian.AppendUint32(hdr, codecMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, DefaultVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(table.Len()))
	hdr = binary.LittleEndian.AppendUint32(hdr, accesses)
	hdr = binary.LittleEndian.AppendUint32(hdr, threads)
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, r := range table.Regions {
		var buf [9]byte
		binary.LittleEndian.PutUint32(buf[0:], uint32(r.ID))
		binary.LittleEndian.PutUint32(buf[4:], uint32(r.Parent))
		buf[8] = byte(r.Kind)
		if _, err := bw.Write(buf[:]); err != nil {
			return fmt.Errorf("trace: write region: %w", err)
		}
		if err := writeString(bw, r.Name); err != nil {
			return err
		}
		if err := writeString(bw, r.File); err != nil {
			return err
		}
		var line [4]byte
		binary.LittleEndian.PutUint32(line[:], uint32(r.Line))
		if _, err := bw.Write(line[:]); err != nil {
			return fmt.Errorf("trace: write region line: %w", err)
		}
	}
	return nil
}

// SetThreads declares the final thread count of a patched stream explicitly
// (e.g. the number of registered goroutines, which may exceed the number that
// issued accesses). Close patches the larger of this and the derived
// max(Access.Thread)+1. A declared stream's header is already written.
func (e *Encoder) SetThreads(n int) {
	if n > e.threads {
		e.threads = n
	}
}

// Written returns the number of access records written so far.
func (e *Encoder) Written() int { return int(e.i) }

// noteEncoded batches encode telemetry: a publish once telemetryFlushEvery
// records have accumulated (every full v3 block is more) and at Close.
func (e *Encoder) noteEncoded(k int) {
	if e.Probes == nil {
		return
	}
	e.pending += uint32(k)
	if e.pending >= telemetryFlushEvery {
		e.flushEncoded()
	}
}

func (e *Encoder) flushEncoded() {
	if e.Probes != nil && e.pending > 0 {
		e.Probes.EncodedRecords.Add(uint64(e.pending))
	}
	e.pending = 0
}

// fail latches err: every later Write and Close returns it, so a producer
// that cannot act on a Write error (Record's tap) still learns of it.
func (e *Encoder) fail(err error) error {
	e.err = err
	return err
}

// Write appends one access record: WriteBatch over a one-record batch.
func (e *Encoder) Write(a Access) error {
	var one [1]Access
	p := &one[0]
	p.Time, p.Addr, p.Size, p.Thread, p.Region, p.Kind = a.Time, a.Addr, a.Size, a.Thread, a.Region, a.Kind
	return e.WriteBatch(one[:])
}

// WriteBatch appends batch's records in order, a block at a time. It fails
// at the first record it cannot write, which is the record a loop of Write
// calls fails at with the same error, and every record before it is written.
func (e *Encoder) WriteBatch(batch []Access) error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return fmt.Errorf("trace: write after Close")
	}
	for len(batch) > 0 {
		if e.i == e.n {
			err := fmt.Errorf("trace: encode access record %d: the stream holds at most %d", e.i+1, e.n)
			if e.ws != nil {
				// A patched stream stands for the whole run, so outgrowing the
				// format fails it; a declared one still holds what it declared.
				e.err = err
			}
			return err
		}
		k := min(len(batch), v3BlockRecords-int(e.blk.recs), int(e.n-e.i))
		n, err := e.blk.appendBatch(batch[:k])
		e.i += uint32(n)
		if err != nil {
			return e.fail(fmt.Errorf("trace: encode access record %d: %w", e.i+1, err))
		}
		if e.blk.full() {
			n, err := e.blk.flush(e.bw)
			if err != nil {
				return e.fail(err)
			}
			e.noteEncoded(n)
		}
		batch = batch[k:]
	}
	return nil
}

// Close flushes buffered output (including a final partial v3 block) and
// finalizes the stream. A declared stream must have received exactly its
// declared count — fewer would decode as truncated — and the error leaves the
// encoder open for the rest. A patched stream gets its access and thread
// counts written over the sentinel; until that succeeds NewDecoder rejects
// the stream, which is exactly the safety property a crash mid-recording
// needs.
func (e *Encoder) Close() error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return fmt.Errorf("trace: already closed")
	}
	if e.ws == nil && e.i != e.n {
		return fmt.Errorf("trace: encoded %d of %d declared access records", e.i, e.n)
	}
	e.closed = true
	n, err := e.blk.flush(e.bw)
	if err != nil {
		return e.fail(err)
	}
	e.noteEncoded(n)
	e.flushEncoded()
	if err := e.bw.Flush(); err != nil {
		return e.fail(fmt.Errorf("trace: flush: %w", err))
	}
	if e.ws == nil {
		return nil
	}
	var counts [8]byte
	binary.LittleEndian.PutUint32(counts[0:], e.i)
	binary.LittleEndian.PutUint32(counts[4:], uint32(max(e.threads, int(e.blk.maxThread)+1)))
	if _, err := e.ws.Seek(12, io.SeekStart); err != nil {
		return e.fail(fmt.Errorf("trace: seek to patch header: %w", err))
	}
	if _, err := e.ws.Write(counts[:]); err != nil {
		return e.fail(fmt.Errorf("trace: patch header counts: %w", err))
	}
	if _, err := e.ws.Seek(0, io.SeekEnd); err != nil {
		return e.fail(fmt.Errorf("trace: seek back after patch: %w", err))
	}
	return nil
}

// Buffer is an in-memory io.WriteSeeker: where a patched stream is staged
// when its destination is a plain io.Writer (Record). The zero value is
// ready to use.
type Buffer struct {
	buf []byte
	off int
}

// Write copies p in at the current offset, extending the buffer as needed.
func (b *Buffer) Write(p []byte) (int, error) {
	end := b.off + len(p)
	if end > cap(b.buf) {
		// Doubling keeps the bytes ever allocated within 4x the final size;
		// append's 1.25x policy for large slices would let them reach 5x.
		grown := make([]byte, len(b.buf), max(2*cap(b.buf), end))
		copy(grown, b.buf)
		b.buf = grown
	}
	b.buf = b.buf[:max(len(b.buf), end)]
	copy(b.buf[b.off:], p)
	b.off = end
	return len(p), nil
}

// Seek implements io.Seeker over the bytes written so far.
func (b *Buffer) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		offset += int64(b.off)
	case io.SeekEnd:
		offset += int64(len(b.buf))
	default:
		return 0, fmt.Errorf("trace: Buffer.Seek: bad whence %d", whence)
	}
	if offset < 0 || offset > int64(len(b.buf)) {
		return 0, fmt.Errorf("trace: Buffer.Seek: offset %d outside [0, %d]", offset, len(b.buf))
	}
	b.off = int(offset)
	return offset, nil
}

// Bytes returns the buffer's contents, valid until the next Write.
func (b *Buffer) Bytes() []byte { return b.buf }

// Decoder reads a trace stream incrementally. NewDecoder consumes the header
// and region table; each NextBatch call then decodes records into a
// caller-owned slice (ForEach hands them to a function one by one). The
// decoder never buffers more than one v3 block, so arbitrarily large traces
// replay at O(region table + one block) resident memory.
type Decoder struct {
	// Probes, when non-nil, receives decode-progress telemetry: one publish
	// per NextBatch call, not one atomic add per record. Set it before the
	// first call; nil keeps decoding uninstrumented.
	Probes *obs.TraceProbes

	// Stages, when non-nil, observes each NextBatch call's wall time into the
	// decode stage-latency histogram (two monotonic-clock reads per batch, not
	// per record). Nil keeps the batch path untimed.
	Stages *obs.StageProbes

	br      *bufio.Reader
	table   *Table
	n, i    uint32
	threads int           // header thread count
	err     error         // sticky failure; io.EOF is not stored here
	blk     v3BlockReader // block state

	// Salvage-mode state (NewDecoderTolerant).
	tolerant    bool
	unfinalized bool   // header counts carried the unpatched sentinel
	nUnknown    bool   // declared record count unknown; read to a clean end
	declared    uint32 // header's access count before any tolerant rewrite
	tolErr      error  // first suppressed decode error
	maxThread   int32  // largest thread seen (tolerant mode only); -1 initially
}

// NewDecoder reads and validates the stream header and region table from r.
// Only v3 is read: any other version fails with "unsupported version N". A
// stream whose counts still hold the unpatched sentinel was never finalized
// — the recording process died before its encoder's Close — and is rejected
// here rather than silently decoded as empty.
func NewDecoder(r io.Reader) (*Decoder, error) {
	return newDecoder(r, false)
}

// NewDecoderTolerant is NewDecoder for salvage: an unfinalized stream
// (sentinel counts) is accepted and read to its last complete record or
// block, and decode errors surface as a clean early io.EOF instead of
// failing, with the suppressed cause kept in SalvageErr. Header and region
// table corruption is still fatal — there is nothing to salvage without a
// table.
func NewDecoderTolerant(r io.Reader) (*Decoder, error) {
	return newDecoder(r, true)
}

func newDecoder(r io.Reader, tolerant bool) (*Decoder, error) {
	br := bufio.NewReader(r)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	le := binary.LittleEndian
	if magic := le.Uint32(hdr[0:]); magic != codecMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", magic)
	}
	if version := le.Uint32(hdr[4:]); version != DefaultVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (only v%d is read)", version, DefaultVersion)
	}
	nRegions, threads := le.Uint32(hdr[8:]), le.Uint32(hdr[16:])
	d := &Decoder{
		br:        br,
		table:     NewTable(),
		n:         le.Uint32(hdr[12:]),
		tolerant:  tolerant,
		maxThread: -1,
	}
	if d.n == countUnpatched || threads == countUnpatched {
		if !tolerant {
			return nil, fmt.Errorf("trace: stream was never finalized (writer exited before Close; recording truncated?)")
		}
		d.unfinalized = true
		d.nUnknown = true
		d.n = 0
		threads = 0
	}
	d.threads, d.declared = int(threads), d.n
	for i := uint32(0); i < nRegions; i++ {
		var buf [9]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("trace: read region %d: %w", i, err)
		}
		name, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("trace: read region %d name: %w", i, err)
		}
		file, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("trace: read region %d file: %w", i, err)
		}
		var line [4]byte
		if _, err := io.ReadFull(br, line[:]); err != nil {
			return nil, fmt.Errorf("trace: read region %d line: %w", i, err)
		}
		d.table.Regions = append(d.table.Regions, Region{
			ID:     int32(le.Uint32(buf[0:])),
			Parent: int32(le.Uint32(buf[4:])),
			Kind:   RegionKind(buf[8]),
			Name:   name,
			File:   file,
			Line:   int(le.Uint32(line[:])),
		})
	}
	if err := d.table.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Table returns the decoded region table.
func (d *Decoder) Table() *Table { return d.table }

// Threads returns the recorded thread (goroutine) count the header
// declares, or 0 when the recorder left it to the caller (or for an
// unfinalized salvage), who must then know it out of band.
func (d *Decoder) Threads() int { return d.threads }

// Len returns the access-record count the header declares (0 when decoding
// an unfinalized stream tolerantly — the count was never patched in).
func (d *Decoder) Len() int { return int(d.n) }

// Unfinalized reports whether the header's counts carried the unpatched
// sentinel (possible only under NewDecoderTolerant).
func (d *Decoder) Unfinalized() bool { return d.unfinalized }

// DeclaredLen returns the header's access count as written, unaffected by a
// tolerant decoder truncating Len at the salvage point (0 when
// unfinalized).
func (d *Decoder) DeclaredLen() int { return int(d.declared) }

// SalvageErr returns the decode error a tolerant decoder suppressed when it
// ended the stream early, or nil if decoding ended cleanly.
func (d *Decoder) SalvageErr() error { return d.tolErr }

// SeenThreads returns max(thread)+1 over the records decoded so far in
// tolerant mode (0 otherwise) — the derived thread count a salvaged,
// unfinalized stream never had patched into its header.
func (d *Decoder) SeenThreads() int { return int(d.maxThread) + 1 }

// recErr wraps a record-level cause with "record i of n" context.
func (d *Decoder) recErr(cause error) error {
	if d.nUnknown {
		return fmt.Errorf("trace: read access record %d (count unfinalized): %w", d.i+1, cause)
	}
	return fmt.Errorf("trace: read access record %d of %d: %w", d.i+1, d.n, cause)
}

// fail records a decode failure. Strict decoders latch it sticky and return
// it; tolerant decoders keep the cause in SalvageErr and convert the failure
// into a clean end of stream.
func (d *Decoder) fail(cause error) error {
	err := d.recErr(cause)
	if d.tolerant {
		if d.tolErr == nil {
			d.tolErr = err
		}
		d.nUnknown = false
		d.n = d.i // future calls report a clean EOF
		return io.EOF
	}
	d.err = err
	return err
}

// endTolerant ends an unfinalized stream cleanly at the current record.
func (d *Decoder) endTolerant() error {
	d.nUnknown = false
	d.n = d.i
	return io.EOF
}

// loadBlock reads and verifies the next v3 block header and payload.
func (d *Decoder) loadBlock() error {
	var hdr [v3BlockHdrLen]byte
	if _, err := io.ReadFull(d.br, hdr[:]); err != nil {
		if err == io.EOF && d.nUnknown {
			// Clean end of an unfinalized stream: the writer died between
			// blocks, so every staged block was complete.
			return d.endTolerant()
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return d.fail(fmt.Errorf("read block header: %w", err))
	}
	recs := binary.LittleEndian.Uint32(hdr[0:])
	plen := binary.LittleEndian.Uint32(hdr[4:])
	crc := binary.LittleEndian.Uint32(hdr[8:])
	if recs == 0 || recs > v3MaxBlockRecords {
		return d.fail(fmt.Errorf("block declares %d records (max %d)", recs, v3MaxBlockRecords))
	}
	if plen > v3MaxBlockBytes {
		return d.fail(fmt.Errorf("block declares %d payload bytes (max %d)", plen, v3MaxBlockBytes))
	}
	if !d.nUnknown && uint64(d.i)+uint64(recs) > uint64(d.n) {
		return d.fail(fmt.Errorf("block declares %d records but only %d remain", recs, d.n-d.i))
	}
	if cap(d.blk.payload) < int(plen) {
		// Grow with headroom so mild block-to-block size jitter does not
		// reallocate on every load; steady-state decode is allocation-free.
		d.blk.payload = make([]byte, plen, int(plen)+int(plen)/2+512)
	}
	d.blk.payload = d.blk.payload[:plen]
	if _, err := io.ReadFull(d.br, d.blk.payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return d.fail(fmt.Errorf("read block payload: %w", err))
	}
	if got := crc32.ChecksumIEEE(d.blk.payload); got != crc {
		return d.fail(fmt.Errorf("block checksum mismatch (header %#x, payload %#x)", crc, got))
	}
	d.blk.begin(recs)
	return nil
}

// NextBatch decodes up to cap(buf) records into buf[:0] and returns the
// filled prefix: the decoder's one read path. The slice is caller-owned and
// reused across calls, so a steady-state batch performs zero allocations;
// batches cross v3 block boundaries to stay full. Telemetry is published
// once per call.
//
// It returns io.EOF after exactly Len records; a truncated or unreadable
// record fails with "record i of n" context (wrapping io.ErrUnexpectedEOF on
// truncation), and errors are sticky. When records were decoded, NextBatch
// returns them with a nil error even if the stream ended or failed
// mid-batch; the io.EOF or sticky decode error surfaces on the following
// call. An empty batch returns io.EOF or the failure directly.
func (d *Decoder) NextBatch(buf []Access) ([]Access, error) {
	if cap(buf) == 0 {
		return nil, fmt.Errorf("trace: NextBatch requires a buffer with non-zero capacity")
	}
	var t0 time.Time
	if d.Stages != nil {
		t0 = time.Now()
	}
	out, err := d.nextBatch(buf)
	if d.Stages != nil {
		d.Stages.Decode.Observe(uint64(time.Since(t0)))
	}
	if d.Probes != nil && len(out) > 0 {
		d.Probes.DecodedRecords.Add(uint64(len(out)))
	}
	return out, err
}

// nextBatch is NextBatch's record loop: records drain straight out of the
// block buffer via decodeInto, with no per-record dispatch, which would
// otherwise dominate the cost of the few-ns compact records.
func (d *Decoder) nextBatch(buf []Access) ([]Access, error) {
	buf = buf[:0]
	for len(buf) < cap(buf) {
		if d.err != nil {
			if len(buf) == 0 {
				return buf, d.err
			}
			break
		}
		if !d.nUnknown && d.i == d.n {
			if len(buf) == 0 {
				return buf, io.EOF
			}
			break
		}
		if d.blk.left == 0 {
			if err := d.loadBlock(); err != nil {
				if len(buf) == 0 {
					return buf, err
				}
				break
			}
			continue
		}
		want := cap(buf) - len(buf)
		if int(d.blk.left) < want {
			want = int(d.blk.left)
		}
		start := len(buf)
		k, derr := d.blk.decodeInto(buf[start : start+want])
		buf = buf[:start+k]
		d.i += uint32(k)
		if d.tolerant {
			for _, a := range buf[start:] {
				if a.Thread > d.maxThread {
					d.maxThread = a.Thread
				}
			}
		}
		if derr != nil {
			err := d.fail(derr)
			if len(buf) == 0 {
				return buf, err
			}
			break
		}
	}
	return buf, nil
}

// ForEach decodes every remaining record through fn, stopping on the first
// decode error or non-nil fn result. It drains NextBatch into one reused
// buffer: the records before a decode failure reach fn, then the error
// returns; after fn fails, the rest of its batch is dropped.
func (d *Decoder) ForEach(fn func(Access) error) error {
	batch := make([]Access, 0, 1024)
	for {
		var err error
		if batch, err = d.NextBatch(batch); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		for _, a := range batch {
			if err := fn(a); err != nil {
				return err
			}
		}
	}
}

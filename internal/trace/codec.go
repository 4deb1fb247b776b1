package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Stream couples a static region table with a recorded access sequence, e.g.
// for writing a trace to disk and re-analysing it offline (the mode the paper
// contrasts with its on-the-fly analysis).
type Stream struct {
	Table    *Table
	Accesses []Access
}

const (
	codecMagic   = 0x43504d54 // "CPMT"
	codecVersion = 1
	// codecVersion2 extends the v1 layout for real-program recordings: the
	// header gains a thread-count field after the access count, and each
	// region entry gains a length-prefixed source file name and a line
	// number. Both counts may be written as countUnpatched by a streaming
	// writer that does not know them up front (NewDynamicEncoder, today in
	// v3's identical header); its Close patches the real values in place, so
	// a sentinel surviving to decode time means the recording process died
	// before finalizing the trace.
	codecVersion2 = 2
	// codecVersion3 keeps the v2 header and region table but replaces the
	// fixed-record access section with CRC-framed blocks of delta/varint
	// records — the compact wire format (see v3.go and DESIGN §9).
	codecVersion3 = 3
	// countUnpatched is the v2/v3 "not yet finalized" sentinel for the
	// access and thread counts.
	countUnpatched = 0xFFFFFFFF
	accessRecLen   = 8 + 8 + 4 + 4 + 4 + 1
	// headerLenV2 is the v2/v3 header: magic, version, region count, access
	// count, thread count.
	headerLenV2 = 20
)

// DefaultVersion is the one format written (Record, the probe shim,
// commtrace recover). v1 and v2 are decode-only: they stay readable forever,
// and nothing in the module writes them.
const DefaultVersion = codecVersion3

// EncodeVersion writes the stream in the given format version, which must be
// DefaultVersion — the materialised wrapper over NewEncoderVersion: header
// and region table first, then the accesses in one WriteBatch. threads is the
// header thread count; 0 derives max(Thread)+1 from the accesses. Since the
// materialised stream knows its counts up front, no seeking is needed.
func (s *Stream) EncodeVersion(w io.Writer, version, threads int) error {
	if threads == 0 {
		for _, a := range s.Accesses {
			if int(a.Thread)+1 > threads {
				threads = int(a.Thread) + 1
			}
		}
	}
	enc, err := NewEncoderVersion(w, s.Table, len(s.Accesses), threads, version)
	if err != nil {
		return err
	}
	if err := enc.WriteBatch(s.Accesses); err != nil {
		return err
	}
	return enc.Close()
}

func writeString(w *bufio.Writer, s string) error {
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(s)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("trace: write string len: %w", err)
	}
	if _, err := w.WriteString(s); err != nil {
		return fmt.Errorf("trace: write string: %w", err)
	}
	return nil
}

func readString(r *bufio.Reader) (string, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return "", err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > 1<<20 {
		return "", fmt.Errorf("trace: string length %d too large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

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
	codecMagic = 0x43504d54 // "CPMT"
	// countUnpatched is the "not yet finalized" sentinel for the header's
	// access and thread counts. A streaming writer that does not know them up
	// front (NewDynamicEncoder) writes it, and its Close patches the real
	// values in place, so a sentinel surviving to decode time means the
	// recording process died before finalizing the trace.
	countUnpatched = 0xFFFFFFFF
	// headerLen is the stream header: magic, version, region count, access
	// count, thread count.
	headerLen = 20
)

// DefaultVersion is the one format, v3, written (Record, the probe shim,
// commtrace recover) and read: a 20-byte header, a region table with
// file:line per region, and an access section framed into CRC-checked
// blocks of delta/varint records (see v3.go and DESIGN §9).
const DefaultVersion = 3

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

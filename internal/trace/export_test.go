package trace

import (
	"encoding/binary"
	"io"
)

// DecodeAll reads a whole encoded stream of any version into memory: the
// tests' materialised view of NewDecoder, which ends a strict stream at its
// declared count. Growth follows the records actually decoded, so a crafted
// count in the header drives no allocation.
func DecodeAll(r io.Reader) (*Stream, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	s := &Stream{Table: d.Table()}
	err = d.ForEach(func(a Access) error {
		s.Accesses = append(s.Accesses, a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Next decodes one record: NextBatch over a one-element buffer, with the
// same io.EOF, "record i of n" and sticky-error contract. It is the tests'
// record-at-a-time view of the decoder.
func (d *Decoder) Next() (Access, error) {
	var one [1]Access
	b, err := d.NextBatch(one[:0])
	if err != nil {
		return Access{}, err
	}
	return b[0], nil
}

// CompareV3Bodies holds the v3 record decoder to the reference body over
// data, as the decoder (strict or tolerant) would call it at batch capacity
// capacity: see compareV3Bodies.
func CompareV3Bodies(data []byte, capacity int, tolerant bool) (int, error) {
	return compareV3Bodies(data, capacity, tolerant)
}

// EncodeFixed renders s in one of the fixed-record layouts, v1 or v2, that
// nothing in the module writes any more. The decoder still reads them, so its
// tests need the bytes; they are built from DESIGN §9's byte layout here, not
// through the v3 encoder. threads is the v2 header thread count, 0 deriving
// max(Thread)+1 from the accesses. v1 has no thread count and no region
// file:line.
func EncodeFixed(s *Stream, version, threads int) []byte {
	if version != codecVersion && version != codecVersion2 {
		panic("trace: EncodeFixed writes v1 or v2 only")
	}
	le := binary.LittleEndian
	b := make([]byte, 0, headerLenV2+accessRecLen*len(s.Accesses))
	b = le.AppendUint32(b, codecMagic)
	b = le.AppendUint32(b, uint32(version))
	b = le.AppendUint32(b, uint32(s.Table.Len()))
	b = le.AppendUint32(b, uint32(len(s.Accesses)))
	if version == codecVersion2 {
		if threads == 0 {
			for _, a := range s.Accesses {
				threads = max(threads, int(a.Thread)+1)
			}
		}
		b = le.AppendUint32(b, uint32(threads))
	}
	str := func(v string) {
		b = le.AppendUint32(b, uint32(len(v)))
		b = append(b, v...)
	}
	for _, r := range s.Table.Regions {
		b = le.AppendUint32(b, uint32(r.ID))
		b = le.AppendUint32(b, uint32(r.Parent))
		b = append(b, byte(r.Kind))
		str(r.Name)
		if version == codecVersion2 {
			str(r.File)
			b = le.AppendUint32(b, uint32(r.Line))
		}
	}
	for _, a := range s.Accesses {
		b = le.AppendUint64(b, a.Time)
		b = le.AppendUint64(b, a.Addr)
		b = le.AppendUint32(b, a.Size)
		b = le.AppendUint32(b, uint32(a.Thread))
		b = le.AppendUint32(b, uint32(a.Region))
		b = append(b, byte(a.Kind))
	}
	return b
}

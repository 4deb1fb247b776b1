package trace

import "io"

// DecodeAll reads a whole encoded stream into memory: the tests'
// materialised view of NewDecoder, which ends a strict stream at its declared
// count. Growth follows the records actually decoded, so a crafted
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

// Package cover is the probe-coverage rule of static access coalescing, the
// one copy both coalescers run: internal/passes over MiniPar IR and
// internal/instrument over rewritten Go source. Each walks a straight-line
// sequence of probes with one Set, asks it whether a probe is redundant, and
// decides on its own only what ends coverage (boundaries) and how it spells a
// probe's key (address identity, size and region).
//
// The rule, in the terms of Algorithm 1's detector:
//
//   - A read is redundant when its key is covered by a kept read or write:
//     the detector ignores a same-thread re-read (the thread is already in
//     the reader set, or is the last writer).
//   - A write is redundant only when its key is covered by a kept write and
//     no read of any key came since. A write starts an epoch that must clear
//     every reader-set mark, and at coarse granularity any read may alias the
//     written granule.
//   - A kept write clears all coverage before covering its own key: two
//     different keys may share a granule, so no coverage survives a write.
package cover

// Set is the coverage of one straight-line span. The zero Set is empty and
// ready to use.
type Set struct {
	keys map[string]entry
	// reads counts the reads seen (kept or redundant); a write entry records
	// the count it was kept at, so an equal count means no read since.
	reads uint64
}

type entry struct {
	write bool
	reads uint64
}

// Read reports whether a read of key is redundant; a kept read covers key.
func (s *Set) Read(key string) bool {
	s.reads++
	if _, ok := s.keys[key]; ok {
		return true
	}
	s.cover(key, entry{})
	return false
}

// Write reports whether a write of key is redundant; a kept write clears
// every key, then covers its own.
func (s *Set) Write(key string) bool {
	if e, ok := s.keys[key]; ok && e.write && e.reads == s.reads {
		return true
	}
	s.Clear()
	s.cover(key, entry{write: true, reads: s.reads})
	return false
}

func (s *Set) cover(key string, e entry) {
	if s.keys == nil {
		s.keys = make(map[string]entry)
	}
	s.keys[key] = e
}

// Clear drops all coverage, as a boundary does.
func (s *Set) Clear() { clear(s.keys) }

// Forget drops key's coverage, for when its spelling may now denote another
// address.
func (s *Set) Forget(key string) { delete(s.keys, key) }

package main

import (
	"fmt"

	"commprof"
	"commprof/internal/trace"
)

// oracle is the benchmark's exact reference for Algorithm 1: per address the
// last writer and the set of threads that read it since, with no signature,
// no hashing and no cache in between. It shares nothing with internal/sig or
// internal/detect, so an error they have in common cannot hide.
//
// The rule (paper Fig. 2): a read by R of an address last written by W != R
// communicates Size bytes from W to R the first time R reads it after that
// write; every write makes its thread the last writer and clears the readers.
type oracle struct {
	cells map[uint64]cell
	bytes [][]uint64 // [writer][reader]
	total uint64
}

type cell struct {
	writer  int32  // last writer + 1; 0 = never written
	readers uint64 // bit t set: thread t has read since the last write
}

// maxOracleThreads is the reader bitmask's width.
const maxOracleThreads = 64

func newOracle(threads int) (*oracle, error) {
	if threads < 1 || threads > maxOracleThreads {
		return nil, fmt.Errorf("oracle: threads %d outside [1,%d]", threads, maxOracleThreads)
	}
	o := &oracle{cells: make(map[uint64]cell), bytes: make([][]uint64, threads)}
	for i := range o.bytes {
		o.bytes[i] = make([]uint64, threads)
	}
	return o, nil
}

func (o *oracle) observe(write bool, addr uint64, size uint32, tid int32) {
	c := o.cells[addr]
	if write {
		o.cells[addr] = cell{writer: tid + 1}
		return
	}
	bit := uint64(1) << uint(tid)
	if c.writer != 0 && c.writer-1 != tid && c.readers&bit == 0 {
		o.bytes[c.writer-1][tid] += uint64(size)
		o.total += uint64(size)
	}
	c.readers |= bit
	o.cells[addr] = c
}

func (o *oracle) observeBatch(batch []trace.Access) {
	for _, a := range batch {
		o.observe(a.Kind == trace.Write, a.Addr, a.Size, a.Thread)
	}
}

// l1 is the summed absolute cell difference between a report's global matrix
// and the oracle's.
func (o *oracle) l1(m commprof.Matrix) (uint64, error) {
	if m.N != len(o.bytes) {
		return 0, fmt.Errorf("oracle: matrix is %dx%d, oracle %dx%d", m.N, m.N, len(o.bytes), len(o.bytes))
	}
	var d uint64
	for i, row := range o.bytes {
		for j, want := range row {
			if got := m.Bytes[i][j]; got > want {
				d += got - want
			} else {
				d += want - got
			}
		}
	}
	return d, nil
}

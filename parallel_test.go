package commprof

import (
	"reflect"
	"testing"
)

// TestParallelDeterministicTotalInvariance pins that the parallel goroutine
// engine and the deterministic round-robin scheduler agree on the global
// matrix for a race-free workload. The workload is a single-writer scatter
// chosen to be order-invariant by construction: thread 0 writes a distinct
// block of K addresses per consumer, a barrier separates production from
// consumption, and each other thread then reads only its own block. With one
// writer the write signature records the same owner under any interleaving,
// and because no two threads read the same address, every first-read check
// queries a reader set containing at most that reader, so no schedule can
// make a slot collision land differently.
func TestParallelDeterministicTotalInvariance(t *testing.T) {
	const (
		threads = 8
		k       = 64 // addresses per consumer thread
		size    = 8
	)
	regions := []Region{{Name: "main", Parent: -1}, {Name: "scatter", Parent: 0, Loop: true}}
	block := func(consumer uint64) uint64 { return 0x10000 + (consumer-1)*k*size }
	body := func(th *Thread) {
		th.InRegion(1, func() {
			if th.ID() == 0 {
				for c := uint64(1); c < threads; c++ {
					for i := uint64(0); i < k; i++ {
						th.Write(block(c)+i*size, size)
					}
				}
			}
			th.Barrier()
			if th.ID() != 0 {
				for i := uint64(0); i < k; i++ {
					th.Read(block(uint64(th.ID()))+i*size, size)
				}
			}
		})
	}

	det, err := Run(threads, regions, body, Options{Parallel: false})
	if err != nil {
		t.Fatal(err)
	}
	// Every consumer reads k*size bytes last written by thread 0; the exact
	// total also proves no slot collision ate an event.
	if want := uint64(k * size * (threads - 1)); det.Global.Total() != want {
		t.Fatalf("deterministic total = %d, want %d", det.Global.Total(), want)
	}

	for trial := 0; trial < 3; trial++ {
		par, err := Run(threads, regions, body, Options{Parallel: true})
		if err != nil {
			t.Fatal(err)
		}
		if par.Global.Total() != det.Global.Total() {
			t.Fatalf("trial %d: parallel total %d != deterministic total %d",
				trial, par.Global.Total(), det.Global.Total())
		}
		if !reflect.DeepEqual(par.Global.Bytes, det.Global.Bytes) {
			t.Fatalf("trial %d: parallel matrix diverged:\npar: %v\ndet: %v",
				trial, par.Global.Bytes, det.Global.Bytes)
		}
		if par.Dependencies != det.Dependencies {
			t.Fatalf("trial %d: dependency counts diverged: %d vs %d",
				trial, par.Dependencies, det.Dependencies)
		}
	}

	// The single-consumer layers compose with the parallel scheduler: its
	// threads reach the one detector through one lock, so with the
	// redundancy cache, the accuracy monitor and the phase windows on, the
	// matrix is still the deterministic one.
	layers := Options{RedundancyCacheBits: 10, AccuracyTargetFPR: 0.05, PhaseWindow: 64}
	for trial := 0; trial < 3; trial++ {
		o := layers
		o.Parallel = true
		par, err := Run(threads, regions, body, o)
		if err != nil {
			t.Fatal(err)
		}
		if par.Redundancy == nil || par.Accuracy == nil || par.PhaseTimeline == nil {
			t.Fatalf("trial %d: a layer's report section is missing: redundancy %v, accuracy %v, timeline %v",
				trial, par.Redundancy != nil, par.Accuracy != nil, par.PhaseTimeline != nil)
		}
		if !reflect.DeepEqual(par.Global.Bytes, det.Global.Bytes) || par.Dependencies != det.Dependencies {
			t.Fatalf("trial %d: with every layer on the parallel matrix diverged (%d deps):\npar: %v\ndet: %v",
				trial, par.Dependencies, par.Global.Bytes, det.Global.Bytes)
		}
	}
}

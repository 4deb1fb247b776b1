package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"commprof/internal/comm"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// TestStreamingReplayMatchesMaterialised is the replay-path property test: on
// every bundled workload, feeding the pipeline record by record from an
// incremental trace.Decoder (the O(queue depth) replay path) is bit-identical
// to materialising the whole access slice and calling ProcessStream, under
// randomised shard counts and queue capacities (and with them buffer sizes). The exact
// backend makes any ordering divergence visible as a matrix or tree
// mismatch; the failure message carries the sampled configuration so a
// counterexample replays deterministically.
func TestStreamingReplayMatchesMaterialised(t *testing.T) {
	const threads = 8
	const seed = 20150901 // any failure reproduces: the rng is per-workload
	for wi, name := range splash.Names() {
		wi, name := wi, name
		t.Run(name, func(t *testing.T) {
			stream, table := recordStream(t, name, threads)

			var buf bytes.Buffer
			enc, err := trace.NewEncoderVersion(&buf, table, len(stream), threads, trace.DefaultVersion)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range stream {
				if err := enc.Write(a); err != nil {
					t.Fatal(err)
				}
			}
			if err := enc.Close(); err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(seed + int64(wi)))
			for trial := 0; trial < 4; trial++ {
				shards := 1 + rng.Intn(8)
				queueCap := 16 << rng.Intn(6) // 16 .. 512: one small buffer .. two full ones
				if trial == 3 {
					shards = 0 // the in-thread engine takes the same two feeds
				}
				cfg := fmt.Sprintf("seed=%d workload=%s trial=%d shards=%d queue=%d",
					seed+int64(wi), name, trial, shards, queueCap)

				opts := Options{
					Shards: shards, Threads: threads, Table: table,
					QueueCapacity: queueCap,
					NewBackend:    PerfectFactory(threads),
				}

				mat, err := New(opts)
				if err != nil {
					t.Fatalf("%s: materialised engine: %v", cfg, err)
				}
				mat.ProcessStream(stream)
				mat.Close()
				wantGlobal, err := mat.Global()
				if err != nil {
					t.Fatal(err)
				}
				wantTree, err := mat.Tree()
				if err != nil {
					t.Fatal(err)
				}

				dec, err := trace.NewDecoder(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("%s: NewDecoder: %v", cfg, err)
				}
				sOpts := opts
				sOpts.Table = dec.Table() // the decoded table must be equivalent
				str, err := New(sOpts)
				if err != nil {
					t.Fatalf("%s: streaming engine: %v", cfg, err)
				}
				p := str.NewProducer(false)
				if err := dec.ForEach(func(a trace.Access) error {
					p.Process(a)
					return nil
				}); err != nil {
					t.Fatalf("%s: streaming decode: %v", cfg, err)
				}
				p.Flush()
				str.Close()

				gotGlobal, err := str.Global()
				if err != nil {
					t.Fatal(err)
				}
				if !gotGlobal.Equal(wantGlobal) {
					t.Fatalf("%s: streaming global matrix differs from materialised", cfg)
				}
				gotTree, err := str.Tree()
				if err != nil {
					t.Fatal(err)
				}
				if n := treeMismatches(wantTree, gotTree); n > 0 {
					t.Fatalf("%s: %d region nodes differ between streaming and materialised replay", cfg, n)
				}

				// Queued, something was resident at some point; in-thread,
				// nothing ever is.
				if got := str.PeakResidentAccesses(); (got > 0) != (shards > 0) && len(stream) > 0 {
					t.Fatalf("%s: PeakResidentAccesses = %d on a non-empty replay", cfg, got)
				}
			}
		})
	}
}

// TestOneProducerInterleavedStreamIsOrderExact pins single-producer staging:
// one producer carrying a multi-threaded interleaved stream, flushed only
// when its buffers fill and at the end, must match an unstaged feed (every
// access flushed on its own) exactly, because each shard's FIFO receives its
// accesses in stream order whatever the thread mix.
func TestOneProducerInterleavedStreamIsOrderExact(t *testing.T) {
	const threads = 8
	stream, table := recordStream(t, "radix", threads)

	run := func(feed func(e *Engine)) *comm.Matrix {
		e, err := New(Options{
			Shards: 4, Threads: threads, Table: table,
			QueueCapacity: 64,
			NewBackend:    PerfectFactory(threads),
		})
		if err != nil {
			t.Fatal(err)
		}
		feed(e)
		e.Close()
		g, err := e.Global()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	unstaged := run(func(e *Engine) {
		p := e.NewProducer(false)
		for _, a := range stream {
			p.Process(a)
			p.Flush()
		}
	})
	staged := run(func(e *Engine) {
		p := e.NewProducer(false)
		for _, a := range stream {
			p.Process(a)
		}
		p.Flush()
	})
	if !staged.Equal(unstaged) {
		t.Fatal("staged producer diverges from unstaged Process")
	}
}

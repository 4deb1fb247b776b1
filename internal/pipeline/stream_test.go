package pipeline

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"commprof/internal/comm"
	"commprof/internal/exec"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// TestStreamingReplayMatchesMaterialised is the replay-path property test: on
// every bundled workload, feeding the pipeline batch by batch from an
// incremental trace.Decoder (the O(queue depth) replay path) is bit-identical
// to materialising the whole access slice and calling ProcessBatch, under
// randomised shard counts, queue capacities and decode batch lengths. The exact
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
				decodeLen := 1 + rng.Intn(300)
				if trial == 3 {
					shards = 0 // the in-thread engine takes the same two feeds
				}
				cfg := fmt.Sprintf("seed=%d workload=%s trial=%d shards=%d queue=%d decode=%d",
					seed+int64(wi), name, trial, shards, queueCap, decodeLen)

				opts := Options{
					Shards: shards, Threads: threads, Table: table,
					QueueCapacity: queueCap,
					NewBackend:    PerfectFactory(threads),
				}

				mat, err := New(opts)
				if err != nil {
					t.Fatalf("%s: materialised engine: %v", cfg, err)
				}
				mat.ProcessBatch(stream)
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
				batch := make([]trace.Access, 0, decodeLen)
				for {
					batch, err = dec.NextBatch(batch)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatalf("%s: streaming decode: %v", cfg, err)
					}
					str.ProcessBatch(batch)
				}
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
// the producer carrying a multi-threaded interleaved stream, flushed only
// when its buffers fill and at Close, must match an unstaged feed (every
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
		for i := range stream {
			e.ProcessBatch(stream[i : i+1])
			e.Flush()
		}
	})
	staged := run(func(e *Engine) { e.ProcessBatch(stream) })
	if !staged.Equal(unstaged) {
		t.Fatal("staged producer diverges from an unstaged feed")
	}
}

// TestReplayShardedBoundedResidency is the streaming acceptance test: radix
// at simlarge (millions of accesses) fed to a sharded engine in the facade's
// 2 048-access batches keeps the in-flight access residency bounded by the
// configured queues and staging buffers — O(shards × (queue + batch)),
// independent of stream length.
func TestReplayShardedBoundedResidency(t *testing.T) {
	const threads, shards, queueCap, feedLen = 8, 4, 512, 2048
	prog, err := splash.New("radix", splash.Config{Threads: threads, Size: splash.SimLarge, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Options{
		Shards: shards, Threads: threads, QueueCapacity: queueCap,
		NewBackend: AsymmetricFactory(1<<20, shards, threads, 0, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := make([]trace.Access, 0, feedLen)
	stats, err := prog.Run(exec.New(exec.Options{Threads: threads, Probe: func(a trace.Access) {
		if feed = append(feed, a); len(feed) == feedLen {
			e.ProcessBatch(feed)
			feed = feed[:0]
		}
	}}))
	if err != nil {
		t.Fatal(err)
	}
	e.ProcessBatch(feed)
	e.Close()
	if got := e.Stats().Processed; got != stats.Accesses {
		t.Fatalf("analysed %d of %d accesses", got, stats.Accesses)
	}
	if e.batch <= 0 || e.batch > queueCap {
		t.Fatalf("batch size %d outside (0, %d]", e.batch, queueCap)
	}
	if e.ProducerFlushes() == 0 {
		t.Fatal("no producer flushes recorded on a multi-million-access stream")
	}
	peak := e.PeakResidentAccesses()
	bound := shards * (queueCap + e.batch)
	if peak <= 0 || peak > bound {
		t.Fatalf("peak resident accesses %d outside (0, %d]", peak, bound)
	}
	// The bound is configuration, not stream length: for this stream it is
	// under 1% of the accesses a materialised replay would hold.
	if stats.Accesses < 1_000_000 {
		t.Fatalf("simlarge radix only has %d accesses; the residency ratio below is meaningless", stats.Accesses)
	}
	if ratio := float64(peak) / float64(stats.Accesses); ratio >= 0.01 {
		t.Fatalf("peak resident accesses %d is %.2f%% of the %d-access stream; streaming must not scale with stream length",
			peak, 100*ratio, stats.Accesses)
	}
}

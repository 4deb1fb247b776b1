package commprof

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"commprof/internal/trace"
)

func TestRecordReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	live, err := Record(Options{Workload: "fft", Threads: 8}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty trace written")
	}
	encoded := append([]byte(nil), buf.Bytes()...)
	replayed, err := Replay(&buf, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Offline analysis of the recorded stream must reproduce the live run's
	// results exactly (same temporal order, same signature configuration).
	if replayed.Dependencies != live.Dependencies || replayed.CommBytes != live.CommBytes {
		t.Fatalf("replay diverged: %d/%d deps, %d/%d bytes",
			replayed.Dependencies, live.Dependencies, replayed.CommBytes, live.CommBytes)
	}
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if replayed.Global.Bytes[s][d] != live.Global.Bytes[s][d] {
				t.Fatalf("cell (%d,%d) differs: %d vs %d", s, d, replayed.Global.Bytes[s][d], live.Global.Bytes[s][d])
			}
		}
	}
	// Region structure survives the codec.
	if len(replayed.Regions) != len(live.Regions) {
		t.Fatalf("regions %d vs %d", len(replayed.Regions), len(live.Regions))
	}
	// The format is v3: the trace still grows with execution length (the
	// property the paper holds against offline tools) but at a few bytes per
	// access, far under the fixed 29-byte v1 record (the decoder-level
	// cross-version wall in internal/trace holds every workload to ≥ 3x).
	if uint64(len(encoded)) >= live.Accesses*8 {
		t.Fatalf("v3 trace not compact: %d bytes for %d accesses", len(encoded), live.Accesses)
	}
}

// TestRecordBytesPinned holds Record's output to the bytes it wrote before
// its tap streamed through the patched-header encoder: the 8-thread hashes
// were taken from the commit that still materialised the run and called
// EncodeVersion(w, 3, threads) at the end. The 32-thread hashes, one per
// splash app (barnes and raytrace among them, the two that take locks), were
// taken from the commit whose scheduler still ran as its own goroutine, so
// they pin the interleaving, every timestamp and the lock hand-offs.
func TestRecordBytesPinned(t *testing.T) {
	for _, c := range []struct {
		workload string
		threads  int
		want     string
	}{
		{"fft", 8, "9268d25ee57264b49db6f613d4e8ddaef741d041e468f4613e668d9b17e29f12"},
		{"radix", 8, "eddc837bd45c88238c436c8f5b3742ac54f6d446b419a530517b06dceb4b09ce"},
		{"lu_ncb", 8, "91189e13202af71051abbfdcd1d739276fb721dacf28d279176bb678415a85fe"},
		{"barnes", 32, "e9308766b0ad2c3a021cf71987c0b99821d9967f90a3bca14c8a19cd62840e2e"},
		{"cholesky", 32, "ff20279efe770f6214c11668c3c0db50d4740ecb088b93f09fd42f46fa57ecb9"},
		{"fft", 32, "1097dea2711dd6f872b24c9a418f2c4587c2b6561d25344ffcfb0688f4a4df33"},
		{"fmm", 32, "d3a98cbe5e16e67923146b9f7a151700332c8900de82a5a1ce11d2b5cead5d59"},
		{"lu_cb", 32, "55c3cdc39f195407c0243f22220155e40c30792b55aedb675edbe8de30b69b45"},
		{"lu_ncb", 32, "6fbd4e7c0d1cec86265e7d03a5e93c7926fc05a2beb97cdc8054249a8ea90643"},
		{"ocean_cp", 32, "8634188e7bc8d77f32148ae717f055cb78a7a3d56afc179e367d77887e316287"},
		{"ocean_ncp", 32, "931deaa78be3b54cec54606ecfc1d8cf3b152c477d0bbd5c7bb0df87af2ee018"},
		{"radiosity", 32, "34d0c1a5c2b74dd0e681f75e3d18e76afced099e875d3499b1fb101e09bc6144"},
		{"radix", 32, "63ecb80054f6cfbb39b57a2c502fa20c3fac9c6489eeac052d1fc0269f13e723"},
		{"raytrace", 32, "3e80986ec3572db8f129c1860cf03228c80764033a82dd0bf9567a70bf4cc6f3"},
		{"volrend", 32, "0e7ad78584e274bc68742b1f3bf370eecebf962be9bdef814251c31db11f4944"},
		{"water_nsq", 32, "0333e4711970fe669e7aca93ad23d6e000a65c11e330720f42f4b505014481f8"},
		{"water_spat", 32, "109bf8ca6fd696a9beef6f047454fb9bcaabbce85af57353227b9d8af9d994b2"},
	} {
		var buf bytes.Buffer
		if _, err := Record(Options{Workload: c.workload, Threads: c.threads}, &buf); err != nil {
			t.Fatalf("%s/%d: %v", c.workload, c.threads, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.want {
			t.Errorf("%s/%d: Record wrote %d bytes with sha256 %s, want %s", c.workload, c.threads, buf.Len(), got, c.want)
		}
	}
}

// TestRecordKeepsNoSecondCopy is the memory half of streaming the tap: what
// Record allocates beyond Profile on the same run is the encoded stream, not
// the run as 32-byte access records.
func TestRecordKeepsNoSecondCopy(t *testing.T) {
	opts := Options{Workload: "radix", Threads: 8}
	allocated := func(run func() (*Report, error)) (bytes, accesses uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, rep.Accesses
	}
	profile, _ := allocated(func() (*Report, error) { return Profile(opts) })
	record, accesses := allocated(func() (*Report, error) { return Record(opts, io.Discard) })
	perAccess := (float64(record) - float64(profile)) / float64(accesses)
	// The v3 stream is ~3.7 B/access here, the staging buffer doubles (so it
	// allocates under 4x its final size over the run) and the encoder's own
	// state is a fixed few tens of KB: ~12 B/access measured. Holding the run
	// as access records cannot get under 32; the append-grown slice this
	// replaced measured ~179.
	if perAccess > 16 {
		t.Errorf("Record allocates %.1f B/access more than Profile (%d vs %d bytes over %d accesses), want <= 16",
			perAccess, record, profile, accesses)
	}
	t.Logf("Record - Profile = %.1f B/access", perAccess)
}

func TestRecordErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(Options{Workload: "nosuch"}, &buf); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Record(Options{Workload: "fft", InputSize: "xxl"}, &buf); err == nil {
		t.Error("bad size accepted")
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := Replay(strings.NewReader("garbage"), 4, Options{}); err == nil {
		t.Error("garbage trace accepted")
	}
	// A trace whose header declares 0 threads leaves the count to the
	// caller, so threads=0 cannot be resolved: the 20-byte v3 header (magic,
	// version 3, no regions, no records, 0 threads).
	noThreads := "TMPC\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
	if _, err := Replay(strings.NewReader(noThreads), 0, Options{}); err == nil || !strings.Contains(err.Error(), "threads 0") {
		t.Errorf("zero threads on a trace declaring none: err = %v, want the threads-0 refusal", err)
	}
	var v3buf bytes.Buffer
	if _, err := Record(Options{Workload: "fft", Threads: 8}, &v3buf); err != nil {
		t.Fatal(err)
	}
	// The recorded (v3) trace declares its thread count; threads=0 resolves.
	if rep, err := Replay(&v3buf, 0, Options{}); err != nil {
		t.Errorf("zero threads rejected for a v3 trace: %v", err)
	} else if rep.Threads != 8 {
		t.Errorf("v3 replay resolved %d threads, want 8", rep.Threads)
	}
	// Thread count smaller than the recording's: accesses reference
	// out-of-range threads.
	var buf2 bytes.Buffer
	if _, err := Record(Options{Workload: "fft", Threads: 8}, &buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(&buf2, 4, Options{}); err == nil {
		t.Error("trace with out-of-range threads accepted")
	}

	// Errors raised while decoding reach the caller with the message and
	// record index the trace dictates, and the analyser goroutine has ended
	// once Replay returns. The synthetic trace holds 10 000 records in
	// v3 blocks of 4 096, 4 096 and 1 808.
	const n = 10000
	good := syntheticTrace(t, n, -1)
	if _, err := Replay(bytes.NewReader(good), 4, Options{}); err != nil {
		t.Fatalf("synthetic trace: %v", err)
	}
	// The access section starts where a record-less trace over the same
	// table ends; each block header is record count, payload length, CRC.
	blk2 := len(syntheticTrace(t, 0, -1))
	if got := binary.LittleEndian.Uint32(good[blk2:]); got != 4096 {
		t.Fatalf("first block holds %d records, want 4096", got)
	}
	blk2 += 12 + int(binary.LittleEndian.Uint32(good[blk2+4:]))
	truncated := good[:blk2+12+int(binary.LittleEndian.Uint32(good[blk2+4:]))/2]
	flipped := bytes.Clone(good)
	flipped[blk2+8] ^= 0xFF
	for _, c := range []struct {
		name string
		data []byte
		opts Options
		want []string
	}{
		// Access 4 196 lies in the third 2 048-access quantum.
		{"thread out of range", syntheticTrace(t, n, 4196), Options{}, []string{"trace access 4196 has thread 7, outside [0,4)"}},
		{"truncated mid-block", truncated, Options{}, []string{"record 4097 of 10000", io.ErrUnexpectedEOF.Error()}},
		{"block CRC flipped", flipped, Options{}, []string{"record 4097 of 10000", "checksum mismatch"}},
		// The analyser is refused before decoding starts: Replay returns
		// the refusal and starts no goroutine.
		{"analyser refused", good, Options{GranularityBits: 64}, []string{"GranularityBits"}},
	} {
		before := runtime.NumGoroutine()
		rep, err := Replay(bytes.NewReader(c.data), 4, c.opts)
		if err == nil || rep != nil {
			t.Errorf("%s: Replay = %v, %v; want an error and no report", c.name, rep, err)
		} else {
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%s: err = %v, want it to contain %q", c.name, err, w)
				}
			}
		}
		waitGoroutines(t, before)
	}
}

// syntheticTrace encodes n accesses by threads 0-3, one loop region, as a v3
// trace declaring 8 threads; access bad (if in range) is by thread 7.
func syntheticTrace(t testing.TB, n, bad int) []byte {
	t.Helper()
	tb := trace.NewTable()
	loop := tb.AddLoop("main#loop", tb.AddFunc("main", trace.NoRegion))
	accs := make([]trace.Access, n)
	for i := range accs {
		a := &accs[i]
		a.Time, a.Addr, a.Size, a.Thread, a.Region, a.Kind = uint64(i), uint64(i%512)*8, 8, int32(i/16%4), loop, trace.Read
		if i%3 == 0 {
			a.Kind = trace.Write
		}
		if i == bad {
			a.Thread = 7
		}
	}
	var buf bytes.Buffer
	enc, err := trace.NewEncoderVersion(&buf, tb, n, 8, trace.DefaultVersion)
	if err == nil {
		err = enc.WriteBatch(accs)
	}
	if err == nil {
		err = enc.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitGoroutines polls until the goroutine count is back to want.
func waitGoroutines(t testing.TB, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before", runtime.NumGoroutine(), want)
		}
	}
}

// FuzzReplay holds Replay to "a report or an error" on arbitrary bytes at
// any thread count in [0,40): never a panic, a hang, or an analyser
// goroutine left running.
func FuzzReplay(f *testing.F) {
	var rec bytes.Buffer
	if _, err := Record(Options{Workload: "fft", InputSize: "simdev", Threads: 4}, &rec); err != nil {
		f.Fatal(err)
	}
	valid := rec.Bytes()
	for _, cut := range []int{len(valid), len(valid) * 3 / 4, len(valid) / 2, len(valid) / 4, len(valid) - 7, 40} {
		f.Add(valid[:cut], uint8(4))
	}
	f.Add(valid, uint8(0))
	f.Add(valid, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, threads uint8) {
		th := int(threads % 40)
		// The analyser holds dense threads x threads matrices per region, so
		// a fuzzed region table can ask for any amount of memory before the
		// first access; keep each input's share of it small.
		if dec, err := trace.NewDecoder(bytes.NewReader(data)); err == nil {
			if th == 0 {
				th = dec.Threads()
			}
			if th > 40 || dec.Table().Len()*th*th*24 > 32<<20 {
				t.Skip("the region table's matrices exceed the 32 MB budget")
			}
		}
		before := runtime.NumGoroutine()
		type result struct {
			rep *Report
			err error
		}
		done := make(chan result, 1)
		go func() {
			rep, err := Replay(bytes.NewReader(data), int(threads%40), Options{SignatureSlots: 1 << 12})
			done <- result{rep, err}
		}()
		select {
		case r := <-done:
			if (r.rep == nil) == (r.err == nil) {
				t.Fatalf("Replay = %v, %v; want exactly one of a report and an error", r.rep, r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Replay did not return within 10 s")
		}
		waitGoroutines(t, before)
	})
}

func TestProfileWithSampling(t *testing.T) {
	full, err := Profile(Options{Workload: "ocean_cp", Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Profile(Options{Workload: "ocean_cp", Threads: 8, SamplePeriod: 4})
	if err != nil {
		t.Fatal(err)
	}
	if full.SampleFraction != 1 || sampled.SampleFraction != 0.25 {
		t.Fatalf("fractions: %v, %v", full.SampleFraction, sampled.SampleFraction)
	}
	if sampled.Dependencies >= full.Dependencies {
		t.Fatalf("sampling did not reduce detected deps: %d vs %d", sampled.Dependencies, full.Dependencies)
	}
	// Rescaled volume in the right ballpark.
	est := float64(sampled.CommBytes) / sampled.SampleFraction
	truth := float64(full.CommBytes)
	if est < 0.5*truth || est > 1.6*truth {
		t.Fatalf("scaled estimate %v vs truth %v", est, truth)
	}
}

// TestSummaryNotesReadSampling pins that the sampling note is part of the
// report text itself, so every front end printing Summary (commprof,
// commtrace, the live probe) warns that its volumes are scaled down.
func TestSummaryNotesReadSampling(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(Options{Workload: "fft", Threads: 4}, &buf); err != nil {
		t.Fatal(err)
	}
	const note = "\n(read sampling active: 25.0% of reads analysed; volumes scale accordingly)\n"
	for _, period := range []uint32{0, 4} {
		rep, err := Replay(bytes.NewReader(buf.Bytes()), 4, Options{SamplePeriod: period})
		if err != nil {
			t.Fatal(err)
		}
		sum := rep.Summary()
		if sampled := strings.HasSuffix(sum, note); sampled != (period > 0) {
			t.Errorf("SamplePeriod %d: Summary ends with the sampling note = %v:\n%s", period, sampled, sum)
		}
		if period == 0 && strings.Contains(sum, "read sampling") {
			t.Errorf("unsampled Summary mentions sampling:\n%s", sum)
		}
	}
}

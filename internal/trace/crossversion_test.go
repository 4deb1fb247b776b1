package trace_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"commprof/internal/exec"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// recordWorkload runs a bundled workload on the deterministic engine and
// returns its access stream with the region table.
func recordWorkload(app string, threads int, size splash.Size) (*trace.Stream, error) {
	prog, err := splash.New(app, splash.Config{Threads: threads, Size: size, Seed: 42})
	if err != nil {
		return nil, err
	}
	s := &trace.Stream{}
	eng := exec.New(exec.Options{Threads: threads, Probe: func(a trace.Access) {
		s.Accesses = append(s.Accesses, a)
	}})
	if _, err := prog.Run(eng); err != nil {
		return nil, err
	}
	s.Table = prog.Table()
	return s, nil
}

// TestDecoderCrossVersionAllWorkloads is the cross-version wall. Every bundled
// workload's stream, written as v1 and v2 by the test writer and as v3 by the
// encoder every recorder uses, decodes to the same NextBatch sequence at every
// batch capacity, the recorded records in order, under the same region table
// (v1 without file:line) and, for v2 and v3, the same thread count. Replay
// consumes exactly the table, the batches and the thread count, so a v1 or v2
// trace replays to the report its v3 recording gives. v3 must also stay at
// least 3x smaller than v1, and at each capacity, strict and tolerant, the v3
// record decoder agrees with the reference body on every record.
func TestDecoderCrossVersionAllWorkloads(t *testing.T) {
	const threads = 8
	for _, name := range splash.Names() {
		t.Run(name, func(t *testing.T) {
			s, err := recordWorkload(name, threads, splash.SimDev)
			if err != nil {
				t.Fatal(err)
			}
			// Source positions make the v1 table's loss of them visible.
			for i := range s.Table.Regions {
				s.Table.Regions[i].File = name + ".go"
				s.Table.Regions[i].Line = 10 * (i + 1)
			}
			var v3 bytes.Buffer
			if err := s.EncodeVersion(&v3, trace.DefaultVersion, threads); err != nil {
				t.Fatal(err)
			}
			data := [][]byte{trace.EncodeFixed(s, 1, threads), trace.EncodeFixed(s, 2, threads), v3.Bytes()}
			if len(data[0]) < 3*len(data[2]) {
				t.Errorf("v3 (%d bytes) not ≥ 3x smaller than v1 (%d bytes)", len(data[2]), len(data[0]))
			}
			v1Table := &trace.Table{Regions: append([]trace.Region(nil), s.Table.Regions...)}
			for i := range v1Table.Regions {
				v1Table.Regions[i].File, v1Table.Regions[i].Line = "", 0
			}

			for _, capacity := range []int{1, 7, 1024} {
				for _, tolerant := range []bool{false, true} {
					n, err := trace.CompareV3Bodies(data[2], capacity, tolerant)
					if err != nil || n != len(s.Accesses) {
						t.Fatalf("cap %d tolerant %v: %d of %d records against the reference body: %v", capacity, tolerant, n, len(s.Accesses), err)
					}
				}
				decs := make([]*trace.Decoder, len(data))
				bufs := make([][]trace.Access, len(data))
				for v := range data {
					d, err := trace.NewDecoder(bytes.NewReader(data[v]))
					if err != nil {
						t.Fatalf("v%d: %v", v+1, err)
					}
					wantTable, wantThreads := s.Table, threads
					if v == 0 {
						wantTable, wantThreads = v1Table, 0
					}
					if !reflect.DeepEqual(d.Table(), wantTable) {
						t.Fatalf("v%d: region table %+v, want %+v", v+1, d.Table().Regions, wantTable.Regions)
					}
					if d.Threads() != wantThreads {
						t.Fatalf("v%d: Threads() = %d, want %d", v+1, d.Threads(), wantThreads)
					}
					decs[v], bufs[v] = d, make([]trace.Access, 0, capacity)
				}
				errs := make([]error, len(decs))
				for call, off := 0, 0; ; call++ {
					for v, d := range decs {
						bufs[v], errs[v] = d.NextBatch(bufs[v])
					}
					if errs[0] != errs[1] || errs[0] != errs[2] {
						t.Fatalf("cap %d, call %d: v1/v2/v3 NextBatch errors %v", capacity, call, errs)
					}
					if errs[0] == io.EOF {
						if off != len(s.Accesses) {
							t.Fatalf("cap %d, call %d: io.EOF after %d of %d records", capacity, call, off, len(s.Accesses))
						}
						break
					}
					if errs[0] != nil {
						t.Fatalf("cap %d, call %d: %v", capacity, call, errs[0])
					}
					want := s.Accesses[off:min(off+capacity, len(s.Accesses))]
					if len(want) == 0 {
						t.Fatalf("cap %d, call %d: a batch past the stream's %d records", capacity, call, off)
					}
					for v := range decs {
						if !reflect.DeepEqual(bufs[v], want) {
							t.Fatalf("cap %d, call %d: v%d batch of %d records differs from records %d.. of the stream", capacity, call, v+1, len(bufs[v]), off)
						}
					}
					off += len(want)
				}
			}
		})
	}
}

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

// TestDecoderCrossVersionAllWorkloads is the decoder's workload wall. Every
// bundled workload's stream, written by the encoder every recorder uses,
// decodes to the recorded records in order at every batch capacity, under
// the recorded region table (file:line included) and thread count, which is
// exactly what Replay consumes. It must stay under a third of the 29 bytes a
// record takes unpacked, and at each capacity, strict and tolerant, the
// record decoder agrees with the reference body on every record. (The name
// dates from when the wall also held the retired v1 and v2 layouts to v3.)
func TestDecoderCrossVersionAllWorkloads(t *testing.T) {
	const threads = 8
	for _, name := range splash.Names() {
		t.Run(name, func(t *testing.T) {
			s, err := recordWorkload(name, threads, splash.SimDev)
			if err != nil {
				t.Fatal(err)
			}
			// Source positions, which the region table must carry through.
			for i := range s.Table.Regions {
				s.Table.Regions[i].File = name + ".go"
				s.Table.Regions[i].Line = 10 * (i + 1)
			}
			var buf bytes.Buffer
			if err := s.EncodeVersion(&buf, trace.DefaultVersion, threads); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			if 3*len(data) > 29*len(s.Accesses) {
				t.Errorf("v3 takes %d bytes for %d records, not under a third of 29 bytes a record", len(data), len(s.Accesses))
			}

			for _, capacity := range []int{1, 7, 1024} {
				for _, tolerant := range []bool{false, true} {
					n, err := trace.CompareV3Bodies(data, capacity, tolerant)
					if err != nil || n != len(s.Accesses) {
						t.Fatalf("cap %d tolerant %v: %d of %d records against the reference body: %v", capacity, tolerant, n, len(s.Accesses), err)
					}
				}
				d, err := trace.NewDecoder(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(d.Table(), s.Table) {
					t.Fatalf("region table %+v, want %+v", d.Table().Regions, s.Table.Regions)
				}
				if d.Threads() != threads {
					t.Fatalf("Threads() = %d, want %d", d.Threads(), threads)
				}
				batch := make([]trace.Access, 0, capacity)
				for call, off := 0, 0; ; call++ {
					batch, err = d.NextBatch(batch)
					if err == io.EOF {
						if off != len(s.Accesses) {
							t.Fatalf("cap %d, call %d: io.EOF after %d of %d records", capacity, call, off, len(s.Accesses))
						}
						break
					}
					if err != nil {
						t.Fatalf("cap %d, call %d: %v", capacity, call, err)
					}
					want := s.Accesses[off:min(off+capacity, len(s.Accesses))]
					if len(want) == 0 {
						t.Fatalf("cap %d, call %d: a batch past the stream's %d records", capacity, call, off)
					}
					if !reflect.DeepEqual(batch, want) {
						t.Fatalf("cap %d, call %d: batch of %d records differs from records %d.. of the stream", capacity, call, len(batch), off)
					}
					off += len(want)
				}
			}
		})
	}
}

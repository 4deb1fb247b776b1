package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commprof"
	"commprof/internal/trace"
)

// TestRecoverSalvagesCutTrace drives -mode recover over a recorded trace cut
// mid-block, as a finalized file truncated on disk and as one whose writer
// died before patching the header: it must exit 0, -o must hold a strictly
// decodable trace of exactly the salvageable prefix, and the report must be
// Replay's of that prefix — with or without -o.
func TestRecoverSalvagesCutTrace(t *testing.T) {
	var recorded bytes.Buffer
	if _, err := commprof.Record(commprof.Options{Workload: "radix", Threads: 8}, &recorded); err != nil {
		t.Fatal(err)
	}
	cut := recorded.Bytes()[:recorded.Len()*3/5]
	unfinalized := append([]byte(nil), cut...)
	for i := 12; i < 20; i++ {
		unfinalized[i] = 0xFF // the sentinel a crashed writer leaves behind
	}
	for name, damaged := range map[string][]byte{"truncated": cut, "unfinalized": unfinalized} {
		t.Run(name, func(t *testing.T) {
			dec, err := trace.NewDecoderTolerant(bytes.NewReader(damaged))
			if err != nil {
				t.Fatal(err)
			}
			prefix := &trace.Stream{Table: dec.Table()}
			if err := dec.ForEach(func(a trace.Access) error {
				prefix.Accesses = append(prefix.Accesses, a)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			records := len(prefix.Accesses)
			if dec.SalvageErr() == nil || records == 0 || records%4096 != 0 {
				t.Fatalf("the cut should land inside a later block: salvaged %d records, stopped at %v", records, dec.SalvageErr())
			}
			var whole bytes.Buffer
			if err := prefix.EncodeVersion(&whole, trace.DefaultVersion, max(dec.Threads(), dec.SeenThreads())); err != nil {
				t.Fatal(err)
			}
			rep, err := commprof.Replay(bytes.NewReader(whole.Bytes()), 0, commprof.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			in, out := filepath.Join(dir, "damaged.trace"), filepath.Join(dir, "salvaged.trace")
			if err := os.WriteFile(in, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, args := range [][]string{
				{"-mode", "recover", "-in", in, "-json", "-o", out},
				{"-mode", "recover", "-in", in, "-json"},
			} {
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("%v exited %d:\n%s", args, code, stderr.String())
				}
				if !strings.Contains(stderr.String(), fmt.Sprintf("recovered %d complete records", records)) ||
					!strings.Contains(stderr.String(), "recovery stopped at") {
					t.Errorf("%v: salvage not reported:\n%s", args, stderr.String())
				}
				if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
					t.Errorf("%v: report differs from Replay of the salvaged prefix:\n%s\nwant:\n%s", args, stdout.String(), want.String())
				}
			}
			salvaged, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(salvaged, whole.Bytes()) {
				t.Errorf("-o wrote %d bytes, want the %d-byte v3 encoding of the %d salvaged records", len(salvaged), whole.Len(), records)
			}
			strict, err := trace.NewDecoder(bytes.NewReader(salvaged))
			if err == nil {
				err = strict.ForEach(func(trace.Access) error { return nil })
			}
			if err != nil {
				t.Errorf("-o does not decode strictly: %v", err)
			}
		})
	}
}

// TestNoTraceFormatChoice: v3 is the one format written, so there is no flag
// to pick another and no mode that converts between them — both are usage
// errors, caught before any package is instrumented.
func TestNoTraceFormatChoice(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-trace-format", "1", "-mode", "recover", "-in", "unused"}, "flag provided but not defined: -trace-format"},
		{[]string{"-mode", "recode", "-pkg", "unused", "-in", "unused", "-o", "unused.v1"}, `unknown mode "recode"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: exit %d, stderr %q; want 2 and %q", c.args, code, stderr.String(), c.want)
		}
	}
}

// TestLiveRefusesLocalOnlyFlags: in -mode live the instrumented program
// analyses and prints by itself, so the flags only this process could honour
// are a usage error naming the flag, not silently dropped.
func TestLiveRefusesLocalOnlyFlags(t *testing.T) {
	for _, flags := range [][]string{{"-json"}, {"-heatmap"}, {"-threads", "4"}, {"-o", "x"}} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-mode", "live", "-pkg", "unused"}, flags...), &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), flags[0]+":") || !strings.Contains(stderr.String(), "-mode live") {
			t.Errorf("-mode live %v: exit %d, stderr %q; want 2 naming %s", flags, code, stderr.String(), flags[0])
		}
	}
}

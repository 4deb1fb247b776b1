package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"commprof/internal/splash"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_signature.golden from this build")

// TestPaperSignatureGolden pins the deterministic signature experiments to
// what `commbench -exp eq2|fig2|fig5a|fpr|hash` printed before the profiler
// gained its exact reader masks: the reproductions run the paper's bloom
// signature (Env.newSignature), so no layout or slot-reduction change in
// internal/sig may move a byte of them.
func TestPaperSignatureGolden(t *testing.T) {
	env := DefaultEnv() // commbench's defaults: 32 threads, seed 42, 2^20 slots
	var got bytes.Buffer
	section := func(id, out string) { fmt.Fprintf(&got, "==== %s ====\n%s\n", id, out) }
	rendered := func(id string, r interface{ Render() string }, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		section(id, r.Render())
	}
	section("eq2", Eq2(env))
	fig2, err := Fig2(env)
	rendered("fig2", fig2, err)
	fig5, err := Fig5(env, splash.SimDev)
	rendered("fig5a", fig5, err)
	fpr, err := FPRSweep(env, splash.SimDev, nil)
	rendered("fpr", fpr, err)
	hash, err := HashAblation(env, splash.SimDev, 0)
	rendered("hash", hash, err)

	const path = "testdata/paper_signature.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("signature experiments moved off the paper contract (-update rewrites %s only when the change is the point):\n--- got\n%s\n--- want\n%s",
			path, got.Bytes(), want)
	}
}

package experiments

import (
	"strings"
	"testing"
)

func TestCoalesceAblation(t *testing.T) {
	res, err := Coalesce(testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want one per kernel", len(res.Rows))
	}
	// The coalescing acceptance floor: >= 20% emitted-access reduction
	// on at least two structured kernels, with bit-identical communication.
	floored := 0
	for _, row := range res.Rows {
		if !row.Identical {
			t.Errorf("%s: communication diverged under coalescing: %+v", row.Kernel, row)
		}
		if row.Emitted+row.Elided != row.Uncoalesced {
			t.Errorf("%s: stream accounting broken: %+v", row.Kernel, row)
		}
		if row.ReductionPct >= 20 {
			floored++
		}
	}
	if floored < 2 {
		t.Errorf("only %d kernels reach the 20%% reduction floor: %+v", floored, res.Rows)
	}
	out := res.Render()
	for _, want := range []string{"fft", "stencil", "reduction", "uncoalesced"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

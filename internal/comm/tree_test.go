package comm

import (
	"strings"
	"testing"

	"commprof/internal/trace"
)

// buildFixture creates the region structure
//
//	main (func)
//	  main#outer (loop)
//	    main#inner (loop)
//	  daxpy (loop)
func buildFixture(t *testing.T) (*trace.Table, []*Matrix, []uint64) {
	t.Helper()
	tb := trace.NewTable()
	main := tb.AddFunc("main", trace.NoRegion)
	outer := tb.AddLoop("main#outer", main)
	inner := tb.AddLoop("main#inner", outer)
	daxpy := tb.AddLoop("daxpy", main)

	own := make([]*Matrix, tb.Len())
	acc := make([]uint64, tb.Len())
	own[inner] = NewMatrix(4)
	own[inner].Add(0, 1, 100)
	acc[inner] = 10
	own[outer] = NewMatrix(4)
	own[outer].Add(1, 2, 50)
	acc[outer] = 5
	own[daxpy] = NewMatrix(4)
	own[daxpy].Add(3, 0, 7)
	acc[daxpy] = 2
	_ = main
	return tb, own, acc
}

func TestBuildTreeSummation(t *testing.T) {
	tb, own, acc := buildFixture(t)
	global := NewMatrix(4)
	global.Add(0, 1, 100)
	global.Add(1, 2, 50)
	global.Add(3, 0, 7)
	tree, err := BuildTree(tb, own, acc, global, NewMatrix(4))
	if err != nil {
		t.Fatalf("BuildTree: %v", err)
	}
	if err := tree.CheckSummationLaw(); err != nil {
		t.Fatalf("summation law: %v", err)
	}
	mainNode, ok := tree.nodes[0]
	if !ok {
		t.Fatal("main node missing")
	}
	// main's cumulative = inner(100) + outer(50) + daxpy(7).
	if got := mainNode.Cumulative.Total(); got != 157 {
		t.Fatalf("main cumulative = %d, want 157", got)
	}
	outerNode := tree.nodes[1]
	if got := outerNode.Cumulative.Total(); got != 150 {
		t.Fatalf("outer cumulative = %d, want 150", got)
	}
	if got := outerNode.Own.Total(); got != 50 {
		t.Fatalf("outer own = %d, want 50", got)
	}
	if len(tree.Roots) != 1 || tree.Roots[0] != mainNode {
		t.Fatal("roots wrong")
	}
}

// TestSummationLawReportsLaterChild: the check reuses one scratch matrix
// across nodes, so a violation at a later child must still be found after
// clean nodes have passed through the scratch, and a clean check allocates
// the scratch alone.
func TestSummationLawReportsLaterChild(t *testing.T) {
	tb, own, acc := buildFixture(t)
	tree, err := BuildTree(tb, own, acc, NewMatrix(4), NewMatrix(4))
	if err != nil {
		t.Fatalf("BuildTree: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tree.CheckSummationLaw(); err != nil {
			t.Fatalf("summation law: %v", err)
		}
	}); allocs > 1 {
		t.Errorf("clean CheckSummationLaw made %.0f allocations, want at most 1", allocs)
	}
	// daxpy is main's last child, checked after main, outer and inner; its
	// own matrix no longer matches its cumulative one, and every ancestor's
	// law still holds.
	tree.nodes[3].Own.Add(2, 1, 1)
	err = tree.CheckSummationLaw()
	if err == nil || !strings.Contains(err.Error(), "region 3 (daxpy)") {
		t.Fatalf("CheckSummationLaw = %v, want a violation at region 3 (daxpy)", err)
	}
}

func TestBuildTreeValidation(t *testing.T) {
	tb, own, acc := buildFixture(t)
	if _, err := BuildTree(tb, own[:1], acc, NewMatrix(4), NewMatrix(4)); err == nil {
		t.Error("short matrices slice accepted")
	}
	bad := &trace.Table{Regions: []trace.Region{{ID: 5}}}
	if _, err := BuildTree(bad, nil, nil, NewMatrix(4), NewMatrix(4)); err == nil {
		t.Error("invalid table accepted")
	}
}

func TestBuildTreeNilOwnMatrices(t *testing.T) {
	tb := trace.NewTable()
	tb.AddFunc("f", trace.NoRegion)
	tree, err := BuildTree(tb, []*Matrix{nil}, []uint64{0}, NewMatrix(2), NewMatrix(2))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Roots[0].Own.Total() != 0 {
		t.Fatal("nil own matrix must become a zero matrix")
	}
}

func TestWalkDepths(t *testing.T) {
	tb, own, acc := buildFixture(t)
	tree, err := BuildTree(tb, own, acc, NewMatrix(4), NewMatrix(4))
	if err != nil {
		t.Fatal(err)
	}
	depths := map[string]int{}
	tree.Walk(func(n *Node, d int) { depths[n.Region.Name] = d })
	want := map[string]int{"main": 0, "main#outer": 1, "main#inner": 2, "daxpy": 1}
	for name, d := range want {
		if depths[name] != d {
			t.Errorf("depth[%s] = %d, want %d", name, depths[name], d)
		}
	}
}

func TestHotspotsRankLoopsOnly(t *testing.T) {
	tb, own, acc := buildFixture(t)
	global := NewMatrix(4)
	global.Add(0, 1, 157)
	tree, err := BuildTree(tb, own, acc, global, NewMatrix(4))
	if err != nil {
		t.Fatal(err)
	}
	hs := tree.Hotspots(10)
	if len(hs) != 3 {
		t.Fatalf("got %d hotspots, want 3 (functions excluded)", len(hs))
	}
	// outer (cum 150) > inner (100) > daxpy (7).
	if hs[0].Node.Region.Name != "main#outer" || hs[1].Node.Region.Name != "main#inner" || hs[2].Node.Region.Name != "daxpy" {
		t.Fatalf("hotspot order: %s %s %s", hs[0].Node.Region.Name, hs[1].Node.Region.Name, hs[2].Node.Region.Name)
	}
	if hs[0].Share <= 0 || hs[0].Share > 1 {
		t.Fatalf("share out of range: %v", hs[0].Share)
	}
	if got := tree.Hotspots(1); len(got) != 1 {
		t.Fatalf("Hotspots(1) len %d", len(got))
	}
}

func TestTreeString(t *testing.T) {
	tb, own, acc := buildFixture(t)
	tree, err := BuildTree(tb, own, acc, NewMatrix(4), NewMatrix(4))
	if err != nil {
		t.Fatal(err)
	}
	s := tree.String()
	for _, want := range []string{"main", "daxpy", "cum=150B"} {
		if !strings.Contains(s, want) {
			t.Errorf("tree output missing %q:\n%s", want, s)
		}
	}
}

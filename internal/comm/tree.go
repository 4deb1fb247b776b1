package comm

import (
	"fmt"
	"sort"
	"strings"

	"commprof/internal/trace"
)

// Node is one region of the nested communication structure: a function or
// annotated loop with its own communication matrix.
type Node struct {
	Region trace.Region
	// Own is the traffic attributed directly to this region (accesses whose
	// innermost region is this one).
	Own *Matrix
	// Cumulative is Own plus the cumulative matrices of all children — the
	// paper's summation law: "the final communication matrix can be obtained
	// by summing all its child matrices together".
	Cumulative *Matrix
	// Accesses counts instrumented accesses attributed directly to the region.
	Accesses uint64
	Children []*Node
}

// Tree is the nested communication pattern of one profiled run (Figs. 6, 7).
type Tree struct {
	// Roots are top-level regions (functions with no parent).
	Roots []*Node
	// Global is the whole-program matrix, including traffic outside any
	// annotated region.
	Global *Matrix
	// Outside is the traffic not attributed to any region.
	Outside *Matrix

	nodes map[int32]*Node
}

// BuildTree assembles the nested structure from the static region table, the
// per-region "own" matrices (indexed by region ID; nil entries allowed), the
// per-region access counts, and the global matrix.
func BuildTree(table *trace.Table, own []*Matrix, accesses []uint64, global, outside *Matrix) (*Tree, error) {
	if err := table.Validate(); err != nil {
		return nil, fmt.Errorf("comm: invalid region table: %w", err)
	}
	if len(own) != table.Len() || len(accesses) != table.Len() {
		return nil, fmt.Errorf("comm: got %d matrices and %d counts for %d regions", len(own), len(accesses), table.Len())
	}
	n := global.N()
	t := &Tree{Global: global, Outside: outside, nodes: make(map[int32]*Node, table.Len())}
	// Regions are topologically ordered (parent ID < child ID), so a single
	// forward pass builds the tree and a backward pass accumulates.
	for _, r := range table.Regions {
		node := &Node{Region: r, Own: own[r.ID], Accesses: accesses[r.ID]}
		if node.Own == nil {
			node.Own = NewMatrix(n)
		}
		node.Cumulative = node.Own.Clone()
		t.nodes[r.ID] = node
		if r.Parent == trace.NoRegion {
			t.Roots = append(t.Roots, node)
		} else {
			t.nodes[r.Parent].Children = append(t.nodes[r.Parent].Children, node)
		}
	}
	for i := table.Len() - 1; i >= 0; i-- {
		node := t.nodes[int32(i)]
		if node.Region.Parent != trace.NoRegion {
			t.nodes[node.Region.Parent].Cumulative.AddMatrix(node.Cumulative)
		}
	}
	return t, nil
}

// NodeCount returns the number of regions in the tree (telemetry).
func (t *Tree) NodeCount() int { return len(t.nodes) }

// Walk visits every node depth-first in region-ID order, calling fn with the
// node and its depth.
func (t *Tree) Walk(fn func(n *Node, depth int)) {
	var rec func(n *Node, d int)
	rec = func(n *Node, d int) {
		fn(n, d)
		for _, c := range n.Children {
			rec(c, d+1)
		}
	}
	for _, r := range t.Roots {
		rec(r, 0)
	}
}

// Hotspot is a region ranked by its share of the program's communication.
type Hotspot struct {
	Node  *Node
	Bytes uint64 // cumulative communication volume
	Share float64
}

// Hotspots returns the k loop regions with the highest cumulative
// communication volume, the program's communication hotspots. Functions are
// excluded: the paper annotates loops as the hotspot granularity.
func (t *Tree) Hotspots(k int) []Hotspot {
	var hs []Hotspot
	total := t.Global.Total()
	t.Walk(func(n *Node, _ int) {
		if n.Region.Kind != trace.LoopRegion {
			return
		}
		b := n.Cumulative.Total()
		if b == 0 {
			return
		}
		share := 0.0
		if total > 0 {
			share = float64(b) / float64(total)
		}
		hs = append(hs, Hotspot{Node: n, Bytes: b, Share: share})
	})
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Bytes != hs[j].Bytes {
			return hs[i].Bytes > hs[j].Bytes
		}
		return hs[i].Node.Region.ID < hs[j].Node.Region.ID
	})
	if k < len(hs) {
		hs = hs[:k]
	}
	return hs
}

// CheckSummationLaw verifies that every node's cumulative matrix equals its
// own plus the sum of its children's cumulative matrices — the invariant the
// paper states for nested patterns. Returns the first violating region ID in
// Walk's order. One scratch matrix holds each node's expected sum in turn.
func (t *Tree) CheckSummationLaw() error {
	return checkSummationLaw(t.Roots, NewMatrix(t.Global.N()))
}

// checkSummationLaw checks nodes and their subtrees in Walk's order.
func checkSummationLaw(nodes []*Node, want *Matrix) error {
	for _, n := range nodes {
		want.CopyFrom(n.Own)
		for _, c := range n.Children {
			want.AddMatrix(c.Cumulative)
		}
		if !want.Equal(n.Cumulative) {
			return fmt.Errorf("comm: summation law violated at region %d (%s)", n.Region.ID, n.Region.Name)
		}
		if err := checkSummationLaw(n.Children, want); err != nil {
			return err
		}
	}
	return nil
}

// String renders the tree as an indented outline with traffic totals.
func (t *Tree) String() string {
	var b strings.Builder
	t.Walk(func(n *Node, depth int) {
		fmt.Fprintf(&b, "%s%s %s: own=%dB cum=%dB accesses=%d\n",
			strings.Repeat("  ", depth), n.Region.Kind, n.Region.Name, n.Own.Total(), n.Cumulative.Total(), n.Accesses)
	})
	return b.String()
}

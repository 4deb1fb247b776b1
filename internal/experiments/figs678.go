package experiments

import (
	"fmt"
	"strings"

	"commprof/internal/comm"
	"commprof/internal/metrics"
	"commprof/internal/splash"
	"commprof/internal/trace"
)

// NestedResult is the nested communication structure of one application:
// Figs. 6 (lu_ncb) and 7 (water_nsquared).
type NestedResult struct {
	App      string
	Tree     *comm.Tree
	Hotspots []comm.Hotspot
}

// Nested profiles one application and returns its nested communication
// pattern; Fig6 and Fig7 are the paper's two instances.
func Nested(env Env, app string, size splash.Size) (*NestedResult, error) {
	d, _, err := env.profile(app, size)
	if err != nil {
		return nil, err
	}
	tree, err := d.Tree()
	if err != nil {
		return nil, err
	}
	if err := tree.CheckSummationLaw(); err != nil {
		return nil, err
	}
	return &NestedResult{App: app, Tree: tree, Hotspots: tree.Hotspots(8)}, nil
}

// Fig6 reproduces the lu_ncb nested communication patterns.
func Fig6(env Env, size splash.Size) (*NestedResult, error) { return Nested(env, "lu_ncb", size) }

// Fig7 reproduces the water_nsquared nested communication patterns.
func Fig7(env Env, size splash.Size) (*NestedResult, error) { return Nested(env, "water_nsq", size) }

// Render prints the region tree with per-node heatmaps for the top regions.
func (r *NestedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Nested communication patterns — %s\n\n", r.App)
	b.WriteString(r.Tree.String())
	b.WriteString("\nGlobal matrix (sum of all children):\n")
	b.WriteString(r.Tree.Global.Heatmap())
	for i, h := range r.Hotspots {
		if i >= 4 {
			break
		}
		fmt.Fprintf(&b, "\nHotspot %d: %s (%.1f%% of traffic, %d bytes)\n",
			i+1, h.Node.Region.Name, 100*h.Share, h.Bytes)
		b.WriteString(h.Node.Cumulative.Heatmap())
	}
	return b.String()
}

// LoadRow is one panel of Fig. 8: the Eq. 1 thread-load vector of one
// application's top hotspot loop.
type LoadRow struct {
	App     string
	Hotspot string
	Load    []float64
	Summary metrics.Summary
}

// Fig8Result is the three-panel thread-load figure.
type Fig8Result struct {
	Rows []LoadRow
}

// Fig8Apps are the applications the paper selects for the workload-
// distribution figure.
var Fig8Apps = []string{"radix", "raytrace", "radiosity"}

// Fig8 computes Eq. 1 thread loads for the top hotspot loop of radix,
// raytrace and radiosity. Expected shapes: radix's pairwise-reduction
// hotspot uses half the threads; raytrace is active on all threads but
// skewed; radiosity is evenly balanced.
func Fig8(env Env, size splash.Size) (*Fig8Result, error) {
	res := &Fig8Result{}
	for _, app := range Fig8Apps {
		d, prog, err := env.profile(app, size)
		if err != nil {
			return nil, err
		}
		tree, err := d.Tree()
		if err != nil {
			return nil, err
		}
		hs := tree.Hotspots(8)
		if len(hs) == 0 {
			return nil, fmt.Errorf("experiments: %s has no hotspots", app)
		}
		node := pickFig8Hotspot(app, hs, prog.Table())
		res.Rows = append(res.Rows, LoadRow{
			App:     app,
			Hotspot: node.Region.Name,
			Load:    metrics.ThreadLoad(node.Cumulative),
			Summary: metrics.Summarize(node.Cumulative),
		})
	}
	return res, nil
}

// pickFig8Hotspot selects the loop the paper's figure shows: for radix the
// half-active pairwise-reduction loop; otherwise the top hotspot.
func pickFig8Hotspot(app string, hs []comm.Hotspot, table *trace.Table) *comm.Node {
	if app == "radix" {
		for _, h := range hs {
			if h.Node.Region.Name == "rank_prefix#pairwise" {
				return h.Node
			}
		}
	}
	return hs[0].Node
}

// Render formats the three load panels as bar charts.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 8 — workload distribution among threads (Eq. 1 thread load)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "\n%s — hotspot %s (%s)\n", row.App, row.Hotspot, row.Summary)
		max := 0.0
		for _, v := range row.Load {
			if v > max {
				max = v
			}
		}
		for i, v := range row.Load {
			bar := 0
			if max > 0 {
				bar = int(30 * v / max)
			}
			fmt.Fprintf(&b, "T%-3d %10.1f %s\n", i, v, strings.Repeat("#", bar))
		}
	}
	return b.String()
}

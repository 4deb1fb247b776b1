package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("reqs_total") != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("fill_ratio")
	g.Set(0.75)
	if got := g.Value(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("gauge = %v, want 0.75", got)
	}
	r.GaugeFunc("live", func() float64 { return 7 })
	s := r.Snapshot()
	if s.Counters["reqs_total"] != 5 || s.Gauges["live"] != 7 {
		t.Fatalf("snapshot wrong: %+v", s)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	var g *Gauge
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	var h *Histogram
	h.Observe(9)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram accumulated")
	}
	r.GaugeFunc("y", func() float64 { return 1 })
	if s := r.Snapshot(); len(s.Gauges) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var tr *Tracer
	h2 := tr.Start("phase")
	h2.End()
	if tr.Current() != "" || tr.Spans() != nil {
		t.Fatal("nil tracer recorded")
	}
	if DefaultProbes(nil) != (Probes{}) {
		t.Fatal("DefaultProbes(nil) is not the zero bundle")
	}
}

func TestHistogramLog2Buckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sizes")
	for _, v := range []uint64{0, 1, 1, 4, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 1006 {
		t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
	}
	// Cumulative: le=0 -> 1 (the zero), le=1 -> 3, le=7 (bitlen 3: value 4)
	// -> 4, le=1023 (bitlen 10: value 1000) -> 5.
	want := map[uint64]uint64{0: 1, 1: 3, 7: 4, 1023: 5}
	for _, b := range s.Buckets {
		if c, ok := want[b.UpperBound]; ok && b.Count != c {
			t.Errorf("bucket le=%d count=%d, want %d", b.UpperBound, b.Count, c)
		}
	}
	last := s.Buckets[len(s.Buckets)-1]
	if last.UpperBound != 1023 || last.Count != 5 {
		t.Fatalf("last bucket %+v", last)
	}

	// ObserveN(v, n) is n Observe(v) calls; n = 0 and a nil histogram are
	// no-ops.
	batched := r.Histogram("sizes_batched")
	for _, run := range [][2]uint64{{0, 1}, {1, 2}, {4, 1}, {1000, 1}, {9, 0}} {
		batched.ObserveN(run[0], run[1])
	}
	(*Histogram)(nil).ObserveN(1, 1)
	if got := batched.Snapshot(); !reflect.DeepEqual(got, s) {
		t.Fatalf("ObserveN snapshot %+v, Observe snapshot %+v", got, s)
	}
}

func TestInvalidAndConflictingNamesPanic(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "bad charset", func() { r.Counter("has space") })
	mustPanic(t, "leading digit", func() { r.Counter("1abc") })
	mustPanic(t, "empty", func() { r.Gauge("") })
	r.Counter("dual")
	mustPanic(t, "kind conflict", func() { r.Histogram("dual") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	fn()
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Gauge("b_ratio").Set(0.5)
	r.GaugeFunc("c_live", func() float64 { return 2 })
	r.Histogram("d_bytes").Observe(4)
	var buf bytes.Buffer
	if err := WriteProm(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE a_total counter\na_total 3\n",
		"# TYPE b_ratio gauge\nb_ratio 0.5\n",
		"c_live 2\n",
		"# TYPE d_bytes histogram\n",
		`d_bytes_bucket{le="7"} 1`,
		`d_bytes_bucket{le="+Inf"} 1`,
		"d_bytes_sum 4\nd_bytes_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("n_total").Add(9)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["n_total"] != 9 {
		t.Fatalf("round-trip lost counter: %+v", s)
	}
}

func TestTracerSpansAndClock(t *testing.T) {
	tr := NewTracer()
	var clock uint64
	tr.SetClock(func() uint64 { return clock })
	outer := tr.Start("run")
	clock = 10
	inner := tr.Start("tree-build")
	if cur := tr.Current(); cur != "tree-build" {
		t.Fatalf("current = %q", cur)
	}
	clock = 25
	inner.End()
	outer.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans", len(spans))
	}
	if spans[0].Name != "tree-build" || spans[0].StartClock != 10 || spans[0].EndClock != 25 {
		t.Fatalf("inner span %+v", spans[0])
	}
	if spans[1].Name != "run" || spans[1].StartClock != 0 || spans[1].EndClock != 25 {
		t.Fatalf("outer span %+v", spans[1])
	}
	if tr.Current() != "" {
		t.Fatal("tracer not idle after ends")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("par_total")
	h := r.Histogram("par_hist")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(uint64(i))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d", c.Value())
	}
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("histogram count = %d", s.Count)
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total").Add(2)
	tr := NewTracer()
	h := tr.Start("engine-run")
	defer h.End()
	srv, err := Serve("127.0.0.1:0", r, tr, func() any {
		return map[string]any{"accesses": 123}
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if out := get("/metrics"); !strings.Contains(out, "served_total 2") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/metrics.json"); !strings.Contains(out, "\"served_total\": 2") {
		t.Errorf("/metrics.json missing counter:\n%s", out)
	}
	out := get("/progress")
	var prog struct {
		Phase    string         `json:"phase"`
		Snapshot map[string]any `json:"snapshot"`
	}
	if err := json.Unmarshal([]byte(out), &prog); err != nil {
		t.Fatalf("progress not JSON: %v\n%s", err, out)
	}
	if prog.Phase != "engine-run" || prog.Snapshot["accesses"] != float64(123) {
		t.Fatalf("progress payload %+v", prog)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.256.256.256:1", NewRegistry(), nil, nil, false); err == nil {
		t.Fatal("no error for bad address")
	}
}

func TestGaugeFuncReplacement(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("v", func() float64 { return 1 })
	r.GaugeFunc("v", func() float64 { return 2 })
	if got := r.Snapshot().Gauges["v"]; got != 2 {
		t.Fatalf("gauge func = %v, want replacement to win", got)
	}
}

func TestSpanWallClock(t *testing.T) {
	tr := NewTracer()
	h := tr.Start("sleepy")
	time.Sleep(5 * time.Millisecond)
	h.End()
	if sp := tr.Spans()[0]; sp.WallNanos < int64(time.Millisecond) {
		t.Fatalf("wall time %dns too short", sp.WallNanos)
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(b)
}

func httpStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// traceEvent mirrors the exported trace-event JSON shape for decoding in
// tests (here and in the facade's golden/schema tests).
type traceEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	TS    *float64       `json:"ts"`
	Dur   float64        `json:"dur"`
	Pid   *int           `json:"pid"`
	Tid   *int           `json:"tid"`
	Scope string         `json:"s"`
	Args  map[string]any `json:"args"`
}

func decodeTimeline(t *testing.T, data []byte) []traceEvent {
	t.Helper()
	var evs []traceEvent
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("timeline is not a JSON array of events: %v", err)
	}
	return evs
}

func TestTracerSetClockBackfillsOpenSpans(t *testing.T) {
	tr := NewTracer()
	h := tr.Start("workload-setup") // opened before any clock source exists
	inner := tr.Start("inner")

	var clock uint64 = 48213
	tr.SetClock(func() uint64 { return clock })

	inner.End()
	clock = 50000
	h.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	for _, sp := range spans {
		if sp.StartClock != 48213 {
			t.Errorf("span %q StartClock = %d, want backfilled 48213", sp.Name, sp.StartClock)
		}
	}
	if spans[1].EndClock != 50000 {
		t.Errorf("outer EndClock = %d, want 50000", spans[1].EndClock)
	}

	// Spans started after the clock was installed still stamp normally.
	h2 := tr.Start("post")
	h2.End()
	if sp := tr.Spans()[2]; sp.StartClock != 50000 {
		t.Errorf("post-install StartClock = %d, want 50000", sp.StartClock)
	}
}

func TestTimelineNilSafe(t *testing.T) {
	var tl *Timeline
	tr := tl.Track("anything")
	if tr != nil {
		t.Fatalf("nil timeline returned non-nil track")
	}
	// None of these may panic or allocate.
	tl.SetClock(func() uint64 { return 1 })
	tl.AddSpans("run", []Span{{Name: "x"}})
	tr.Begin("a")
	tr.End("a")
	tr.Instant("b")
	tr.Counter("c", 1)
	tr.Complete("d", time.Now(), time.Second, 0, 0)
	if n := testing.AllocsPerRun(100, func() {
		tr.Begin("a")
		tr.End("a")
		tr.Instant("b")
		tr.Counter("c", 1)
	}); n != 0 {
		t.Fatalf("disabled track ops allocate %v per run, want 0", n)
	}
	var buf bytes.Buffer
	if err := tl.WriteTraceEvents(&buf); err != nil {
		t.Fatalf("nil timeline export: %v", err)
	}
	if evs := decodeTimeline(t, buf.Bytes()); len(evs) != 0 {
		t.Fatalf("nil timeline exported %d events, want 0", len(evs))
	}
}

func TestTimelineExportSchema(t *testing.T) {
	tl := NewTimeline()
	var clock uint64
	tl.SetClock(func() uint64 { clock++; return clock })

	w0 := tl.Track("shard-0")
	w1 := tl.Track("shard-1")
	if tl.Track("shard-0") != w0 {
		t.Fatalf("Track is not get-or-create")
	}

	w0.Begin("busy")
	w0.Begin("batch")
	w0.End("batch")
	w0.Instant("window-close")
	w0.End("busy")
	w1.Counter("queue_depth", 17)
	w1.Counter("queue_depth", 3)
	tl.AddSpans("run", []Span{
		{Name: "engine-run", Start: time.Now().Add(-time.Millisecond), WallNanos: 1e6, StartClock: 1, EndClock: 9},
		// A span that predates the timeline must clamp to ts ≥ 0.
		{Name: "workload-setup", Start: time.Now().Add(-time.Hour), WallNanos: 5, StartClock: 0, EndClock: 1},
	})

	var buf bytes.Buffer
	if err := tl.WriteTraceEvents(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	evs := decodeTimeline(t, buf.Bytes())

	names := map[int]string{} // tid → track name
	balance := map[int]int{}
	var sawInstant, sawCounter, sawComplete bool
	for i, ev := range evs {
		if ev.Ph == "" || ev.TS == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d missing required field: %+v", i, ev)
		}
		if *ev.TS < 0 {
			t.Errorf("event %d has negative ts %v", i, *ev.TS)
		}
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				names[*ev.Tid] = ev.Args["name"].(string)
			}
		case "B":
			balance[*ev.Tid]++
		case "E":
			balance[*ev.Tid]--
			if balance[*ev.Tid] < 0 {
				t.Fatalf("event %d: E without open B on tid %d", i, *ev.Tid)
			}
		case "i":
			sawInstant = true
			if ev.Scope != "t" {
				t.Errorf("instant event %d missing thread scope: %+v", i, ev)
			}
		case "C":
			sawCounter = true
			if _, ok := ev.Args["value"]; !ok {
				t.Errorf("counter event %d has no value arg", i)
			}
		case "X":
			sawComplete = true
		default:
			t.Errorf("event %d: unknown phase %q", i, ev.Ph)
		}
	}
	for tid, n := range balance {
		if n != 0 {
			t.Errorf("tid %d has %d unbalanced B events", tid, n)
		}
	}
	if !sawInstant || !sawCounter || !sawComplete {
		t.Errorf("missing event kinds: instant=%v counter=%v complete=%v", sawInstant, sawCounter, sawComplete)
	}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, want := range []string{"shard-0", "shard-1", "run"} {
		if !got[want] {
			t.Errorf("no thread_name metadata for track %q (have %v)", want, names)
		}
	}
	// Logical clocks flow through: the first busy Begin stamped clock 1.
	for _, ev := range evs {
		if ev.Ph == "B" && ev.Name == "busy" {
			if c, ok := ev.Args["clock"].(float64); !ok || c != 1 {
				t.Errorf("busy Begin clock arg = %v, want 1", ev.Args["clock"])
			}
			break
		}
	}
}

func TestTimelineTruncationKeepsBalance(t *testing.T) {
	tl := NewTimeline()
	tr := tl.Track("hot")
	// Overfill well past the cap with nested pairs and instants.
	for i := 0; i < maxTrackEvents; i++ {
		tr.Begin("flush")
		tr.Instant("drop")
		tr.End("flush")
	}
	var buf bytes.Buffer
	if err := tl.WriteTraceEvents(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	evs := decodeTimeline(t, buf.Bytes())
	depth := 0
	var truncated bool
	for i, ev := range evs {
		switch ev.Ph {
		case "B":
			depth++
		case "E":
			depth--
			if depth < 0 {
				t.Fatalf("event %d: E without open B after truncation", i)
			}
		case "M":
			if ev.Name == "thread_name" {
				_, truncated = ev.Args["truncated"]
			}
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced spans after truncation: depth %d", depth)
	}
	if !truncated {
		t.Errorf("truncating track did not report a truncated arg in its metadata")
	}
	tr.mu.Lock()
	got := len(tr.events)
	tr.mu.Unlock()
	if got > maxTrackEvents+1 {
		t.Errorf("track kept %d events, cap is %d", got, maxTrackEvents)
	}
}

func TestServePprofEndpoint(t *testing.T) {
	reg := NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg, NewTracer(), nil, true)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	body := httpGet(t, "http://"+srv.Addr()+"/debug/pprof/")
	if !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index does not list profiles: %.120q", body)
	}
	// Without the switch the handlers must not be mounted.
	plain, err := Serve("127.0.0.1:0", reg, NewTracer(), nil, false)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer plain.Close()
	if code := httpStatus(t, "http://"+plain.Addr()+"/debug/pprof/"); code != 404 {
		t.Errorf("pprof mounted without the pprof switch (status %d)", code)
	}
}

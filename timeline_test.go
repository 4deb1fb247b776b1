package commprof

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"commprof/internal/trace"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden files")

// timelineEvent mirrors the Chrome/Perfetto trace-event JSON shape for
// decoding in tests. Pointer fields distinguish "absent" from zero so the
// schema checks can require ts/pid/tid on every event.
type timelineEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	TS    *float64       `json:"ts"`
	Dur   float64        `json:"dur"`
	Pid   *int           `json:"pid"`
	Tid   *int           `json:"tid"`
	Scope string         `json:"s"`
	Args  map[string]any `json:"args"`
}

// validateTimeline is the trace-event schema check shared by the live-export
// and golden tests: the payload must be a JSON array whose events all carry
// ph/ts/pid/tid, use only known phase letters, and keep B/E duration pairs
// balanced per track. It returns the events plus the set of track names
// declared via thread_name metadata.
func validateTimeline(t *testing.T, data []byte) ([]timelineEvent, map[string]bool) {
	t.Helper()
	var evs []timelineEvent
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("timeline is not a JSON array of trace events: %v", err)
	}
	tracks := make(map[string]bool)
	depth := make(map[int]int)
	for i, ev := range evs {
		switch ev.Ph {
		case "B", "E", "X", "i", "C", "M":
		default:
			t.Fatalf("event %d has unknown phase %q: %+v", i, ev.Ph, ev)
		}
		if ev.TS == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d is missing ts/pid/tid: %+v", i, ev)
		}
		if *ev.TS < 0 {
			t.Fatalf("event %d has negative ts %v", i, *ev.TS)
		}
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				name, _ := ev.Args["name"].(string)
				if name == "" && *ev.Tid != 0 {
					t.Fatalf("thread_name metadata for tid %d has no name", *ev.Tid)
				}
				tracks[name] = true
			}
		case "B":
			depth[*ev.Tid]++
		case "E":
			depth[*ev.Tid]--
			if depth[*ev.Tid] < 0 {
				t.Fatalf("event %d: E without matching B on tid %d", i, *ev.Tid)
			}
		case "i":
			if ev.Scope != "t" {
				t.Fatalf("instant %q has scope %q, want thread scope \"t\"", ev.Name, ev.Scope)
			}
		case "C":
			if _, ok := ev.Args["value"]; !ok {
				t.Fatalf("counter %q has no args.value", ev.Name)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Fatalf("tid %d ends with %d unclosed B events", tid, d)
		}
	}
	return evs, tracks
}

// shardedTimelineRun replays a pinned deterministic recording through the
// sharded pipeline with the timeline enabled and returns the report plus the
// exported trace-event JSON.
func shardedTimelineRun(t testing.TB, size string, shards int) (*Report, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Record(Options{Workload: "fft", Threads: 8, InputSize: size, Seed: 42}, &buf); err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry()
	tel.EnableTimeline()
	rep, err := Replay(bytes.NewReader(buf.Bytes()), 8, Options{
		AnalysisShards: shards,
		Telemetry:      tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := tel.WriteTimeline(&out); err != nil {
		t.Fatal(err)
	}
	return rep, out.Bytes()
}

// TestTimelineShardedReplay is the acceptance check for the timeline export:
// a sharded simlarge replay produces valid trace-event JSON with one track
// per shard worker and producer, facade phases on the run track, and counter
// samples from the periodic tick.
func TestTimelineShardedReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("simlarge replay in -short mode")
	}
	const shards = 4
	_, data := shardedTimelineRun(t, "simlarge", shards)
	evs, tracks := validateTimeline(t, data)

	want := []string{"run", "counters", "producer-0"}
	for i := 0; i < shards; i++ {
		want = append(want, "shard-"+string(rune('0'+i)))
	}
	for _, name := range want {
		if !tracks[name] {
			t.Errorf("track %q missing; have %v", name, tracks)
		}
	}

	var phases, counters, spans int
	for _, ev := range evs {
		switch ev.Ph {
		case "X":
			phases++
		case "C":
			counters++
		case "B":
			spans++
		}
	}
	if phases == 0 {
		t.Error("no facade phase spans (X events) on the run track")
	}
	if spans == 0 {
		t.Error("no worker/producer duration spans (B events)")
	}
	if counters == 0 {
		t.Error("no counter samples; the periodic tick never fired on a simlarge replay")
	}
	var sawQueueDepth bool
	for _, ev := range evs {
		if ev.Ph == "C" && strings.HasPrefix(ev.Name, "queue_depth_shard_") {
			sawQueueDepth = true
		}
	}
	if !sawQueueDepth {
		t.Error("no queue_depth_shard_* counter track")
	}
}

// TestTimelineGolden pins the export format: the committed golden file (from
// a pinned deterministic run; regenerate with go test -run TimelineGolden
// -update) must stay schema-valid and keep the expected track layout, so any
// format change is an explicit diff in review.
func TestTimelineGolden(t *testing.T) {
	path := filepath.Join("testdata", "timeline_golden.json")
	if *updateGolden {
		_, data := shardedTimelineRun(t, "simdev", 2)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	evs, tracks := validateTimeline(t, data)
	if len(evs) == 0 {
		t.Fatal("golden timeline is empty")
	}
	for _, name := range []string{"run", "counters", "shard-0", "shard-1", "producer-0"} {
		if !tracks[name] {
			t.Errorf("golden is missing track %q; have %v", name, tracks)
		}
	}
	// The facade phases must appear as complete spans on the run track.
	var runPhases []string
	for _, ev := range evs {
		if ev.Ph == "X" {
			runPhases = append(runPhases, ev.Name)
		}
	}
	for _, want := range []string{"tree-build", "report"} {
		found := false
		for _, n := range runPhases {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("golden run track lacks phase %q; got %v", want, runPhases)
		}
	}
}

// TestReportOverheadAttribution checks the self-attribution accounting on a
// sharded replay: the bucket decomposition sums exactly to the attributed
// total, and the stage histograms behind the buckets hold one observation per
// unit of work — one batch-service time per worker drain, one decode time per
// NextBatch call. (What share of the wall clock the buckets cover is a
// timing figure; the bench harness measures it, a test under load cannot.)
func TestReportOverheadAttribution(t *testing.T) {
	rep, _ := shardedTimelineRun(t, "simdev", 2)
	ov := rep.Overhead
	if ov == nil {
		t.Fatal("Report.Overhead is nil on an instrumented sharded replay")
	}
	if ov.EngineWallNanos == 0 {
		t.Fatal("EngineWallNanos = 0")
	}
	sum := ov.DecodeNanos + ov.QueueNanos + ov.SignatureNanos +
		ov.RedundancyNanos + ov.ShadowNanos + ov.WindowNanos + ov.MergeNanos
	if sum != ov.AttributedNanos {
		t.Errorf("bucket sum %d != AttributedNanos %d", sum, ov.AttributedNanos)
	}
	if ov.DecodeNanos == 0 || ov.QueueNanos == 0 {
		t.Errorf("decode/queue buckets empty on a replay: %+v", ov)
	}
	hist := rep.Telemetry.Histograms
	if drains, service := hist["pipeline_batch_size"].Count, hist["stage_batch_service_nanos"].Count; drains == 0 || service != drains {
		t.Errorf("%d batch-service observations for %d worker drains", service, drains)
	}
	// Count the NextBatch calls the replay made by decoding the same trace
	// the same way.
	var buf bytes.Buffer
	if _, err := Record(Options{Workload: "fft", Threads: 8, InputSize: "simdev", Seed: 42}, &buf); err != nil {
		t.Fatal(err)
	}
	dec, err := trace.NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	calls := uint64(0)
	for batch := make([]trace.Access, 0, quantumLen); ; {
		calls++
		if batch, err = dec.NextBatch(batch); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if got := hist["stage_decode_nanos"].Count; got != calls {
		t.Errorf("%d decode observations for %d NextBatch calls", got, calls)
	}
}

// TestProgressStageLatencies checks the per-stage latency table surfaced on
// /progress: a sharded replay must populate decode, producer and
// batch_service rows with sane quantiles.
func TestProgressStageLatencies(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(Options{Workload: "fft", Threads: 8, Seed: 42}, &buf); err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry()
	if _, err := Replay(bytes.NewReader(buf.Bytes()), 8, Options{
		AnalysisShards: 2, Telemetry: tel,
	}); err != nil {
		t.Fatal(err)
	}
	snap := tel.Progress()
	got := make(map[string]StageLatency)
	for _, sl := range snap.Stages {
		got[sl.Stage] = sl
	}
	for _, stage := range []string{"decode", "producer", "batch_service"} {
		sl, ok := got[stage]
		if !ok || sl.Count == 0 {
			t.Errorf("stage %q missing or empty in progress snapshot: %v", stage, snap.Stages)
			continue
		}
		if sl.MeanNanos <= 0 || sl.P50Nanos <= 0 || sl.P99Nanos < sl.P50Nanos {
			t.Errorf("stage %q has implausible latencies: %+v", stage, sl)
		}
	}
}

// TestTelemetryConcurrentScrape hammers /metrics and /progress from several
// goroutines while a sharded run is live. It exists to run under -race: the
// scrape path shares the registry, tracer, timeline and stage histograms
// with the pipeline hot path.
func TestTelemetryConcurrentScrape(t *testing.T) {
	tel := NewTelemetry()
	tel.EnableTimeline()
	addr, err := tel.Serve("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	scrape := func(url string) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("GET %s: %v", url, err)
				return
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Errorf("read %s: %v", url, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s: status %d", url, resp.StatusCode)
				return
			}
		}
	}
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go scrape("http://" + addr + "/metrics")
		go scrape("http://" + addr + "/progress")
	}

	rep, err := Profile(Options{Workload: "radix", Threads: 8, AnalysisShards: 3, Telemetry: tel})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dependencies == 0 {
		t.Fatal("live sharded run under scrape load detected nothing")
	}
	var out bytes.Buffer
	if err := tel.WriteTimeline(&out); err != nil {
		t.Fatal(err)
	}
	validateTimeline(t, out.Bytes())
}

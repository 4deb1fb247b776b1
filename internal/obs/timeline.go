package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Timeline collects an execution timeline — per-track begin/end spans,
// instant markers and counter samples — and exports it as Chrome trace-event
// JSON, the format Perfetto and chrome://tracing load directly. Tracks map
// to trace-viewer threads: the sharded engine registers one track per shard
// worker and per producer, the facade one per run phase, plus counter tracks
// for live rates.
//
// Like every probe in this package, the disabled path is a nil receiver: all
// methods on a nil *Timeline and a nil *Track are allocation-free no-ops, so
// hot layers thread a *Track through behind a single nil check.
//
// Event buffers are per-track (own mutex + slice), so concurrent shard
// workers never contend with each other. Recording is bounded: once a track
// holds maxTrackEvents events, further spans are dropped in balanced
// begin/end pairs (an End whose Begin was recorded is always recorded too)
// and instants/counters are dropped outright, with the loss reported in the
// track's exported metadata as a "truncated" arg.
type Timeline struct {
	start time.Time
	clock atomic.Value // func() uint64; logical-clock source, optional

	mu     sync.Mutex
	tracks []*Track
	byName map[string]*Track
}

// maxTrackEvents bounds one track's buffer (~48 B/event ⇒ ≤ ~3 MiB/track).
// Worker busy spans and window-close instants sit far below this; only
// per-flush producer spans on very long runs hit it, and they degrade by
// dropping whole spans, never unbalancing begin/end.
const maxTrackEvents = 1 << 16

// NewTimeline returns an empty timeline whose timestamps are relative to now.
func NewTimeline() *Timeline {
	return &Timeline{start: time.Now(), byName: map[string]*Track{}}
}

// SetClock installs the logical-clock source; each subsequent event records
// the clock value alongside its wall timestamp.
func (tl *Timeline) SetClock(fn func() uint64) {
	if tl == nil || fn == nil {
		return
	}
	tl.clock.Store(fn)
}

func (tl *Timeline) now() uint64 {
	if fn, ok := tl.clock.Load().(func() uint64); ok {
		return fn()
	}
	return 0
}

// Track returns the track registered under name, creating it on first use.
// Returns nil (a no-op track) on a nil timeline.
func (tl *Timeline) Track(name string) *Track {
	if tl == nil {
		return nil
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if t, ok := tl.byName[name]; ok {
		return t
	}
	t := &Track{tl: tl, name: name, tid: len(tl.tracks) + 1}
	tl.tracks = append(tl.tracks, t)
	tl.byName[name] = t
	return t
}

// trackEvent is one recorded trace event. phase follows the Chrome
// trace-event vocabulary: 'B'/'E' duration pairs, 'X' complete spans,
// 'i' instants, 'C' counter samples.
type trackEvent struct {
	name  string
	phase byte
	ts    int64   // nanoseconds since Timeline.start
	dur   int64   // 'X' only
	clock uint64  // logical clock at emit (0 when no source installed)
	value float64 // 'C' only
}

// Track is one named timeline row. All methods are no-ops on nil.
type Track struct {
	tl   *Timeline
	name string
	tid  int

	mu        sync.Mutex
	events    []trackEvent
	dropDepth int    // open Begins that were dropped; their Ends drop too
	truncated uint64 // events lost to the maxTrackEvents cap
}

func (t *Track) stamp() (int64, uint64) {
	return time.Since(t.tl.start).Nanoseconds(), t.tl.now()
}

// Begin opens a duration span on the track. Spans nest: a Begin inside an
// open span renders as its child.
func (t *Track) Begin(name string) {
	if t == nil {
		return
	}
	ts, clk := t.stamp()
	t.mu.Lock()
	if t.dropDepth > 0 || len(t.events) >= maxTrackEvents {
		t.dropDepth++
		t.truncated++
		t.mu.Unlock()
		return
	}
	t.events = append(t.events, trackEvent{name: name, phase: 'B', ts: ts, clock: clk})
	t.mu.Unlock()
}

// End closes the innermost open span. An End whose Begin was recorded is
// always recorded, even past the event cap, so begin/end pairs stay balanced.
func (t *Track) End(name string) {
	if t == nil {
		return
	}
	ts, clk := t.stamp()
	t.mu.Lock()
	if t.dropDepth > 0 {
		t.dropDepth--
		t.mu.Unlock()
		return
	}
	t.events = append(t.events, trackEvent{name: name, phase: 'E', ts: ts, clock: clk})
	t.mu.Unlock()
}

// Instant records a zero-duration marker (window close, alarm).
func (t *Track) Instant(name string) {
	if t == nil {
		return
	}
	ts, clk := t.stamp()
	t.mu.Lock()
	if len(t.events) < maxTrackEvents {
		t.events = append(t.events, trackEvent{name: name, phase: 'i', ts: ts, clock: clk})
	} else {
		t.truncated++
	}
	t.mu.Unlock()
}

// Counter records one sample of a named counter series on this track.
func (t *Track) Counter(name string, v float64) {
	if t == nil {
		return
	}
	ts, clk := t.stamp()
	t.mu.Lock()
	if len(t.events) < maxTrackEvents {
		t.events = append(t.events, trackEvent{name: name, phase: 'C', ts: ts, clock: clk, value: v})
	} else {
		t.truncated++
	}
	t.mu.Unlock()
}

// Complete records an already-finished span (a 'X' complete event) that
// started at start and ran for dur. Used to replay finished Tracer spans
// onto a track; complete events need no begin/end balancing and may be
// appended out of wall order.
func (t *Track) Complete(name string, start time.Time, dur time.Duration, startClock, endClock uint64) {
	if t == nil {
		return
	}
	ts := start.Sub(t.tl.start).Nanoseconds()
	if ts < 0 {
		ts = 0 // span opened before the timeline existed; clamp to origin
	}
	t.mu.Lock()
	if len(t.events) < maxTrackEvents {
		t.events = append(t.events, trackEvent{
			name: name, phase: 'X', ts: ts, dur: dur.Nanoseconds(),
			clock: startClock, value: float64(endClock),
		})
	} else {
		t.truncated++
	}
	t.mu.Unlock()
}

// AddSpans replays finished tracer spans onto the named track as complete
// ('X') events, preserving their wall extent and logical-clock bounds. The
// facade calls this at export time so the run's phase spans share the
// timeline's timebase.
func (tl *Timeline) AddSpans(track string, spans []Span) {
	if tl == nil {
		return
	}
	t := tl.Track(track)
	for _, sp := range spans {
		t.Complete(sp.Name, sp.Start, time.Duration(sp.WallNanos), sp.StartClock, sp.EndClock)
	}
}

// WriteTraceEvents writes the whole timeline as a Chrome trace-event JSON
// array: one process ("commprof", pid 1), one thread per track (named via
// 'M' metadata events), then each track's events in recording order.
// Timestamps are microseconds with nanosecond fraction, relative to the
// timeline's creation. The output loads directly in Perfetto
// (ui.perfetto.dev) and chrome://tracing.
func (tl *Timeline) WriteTraceEvents(w io.Writer) error {
	if tl == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	tl.mu.Lock()
	tracks := make([]*Track, len(tl.tracks))
	copy(tracks, tl.tracks)
	tl.mu.Unlock()
	sort.Slice(tracks, func(i, j int) bool { return tracks[i].tid < tracks[j].tid })

	bw := bufio.NewWriter(w)
	var scratch []byte
	first := true
	emit := func(b []byte) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.Write(b)
	}
	bw.WriteString("[\n")
	scratch = append(scratch[:0], `{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"commprof"}}`...)
	emit(scratch)
	for _, t := range tracks {
		t.mu.Lock()
		events := make([]trackEvent, len(t.events))
		copy(events, t.events)
		truncated := t.truncated
		t.mu.Unlock()

		scratch = scratch[:0]
		scratch = append(scratch, `{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":`...)
		scratch = strconv.AppendInt(scratch, int64(t.tid), 10)
		scratch = append(scratch, `,"args":{"name":`...)
		scratch = strconv.AppendQuote(scratch, t.name)
		if truncated > 0 {
			scratch = append(scratch, `,"truncated":`...)
			scratch = strconv.AppendUint(scratch, truncated, 10)
		}
		scratch = append(scratch, `}}`...)
		emit(scratch)

		for i := range events {
			emit(appendTraceEvent(scratch[:0], t.tid, &events[i]))
		}
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// appendTraceEvent renders one event as a trace-event JSON object.
func appendTraceEvent(b []byte, tid int, ev *trackEvent) []byte {
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, ev.name)
	b = append(b, `,"ph":"`...)
	b = append(b, ev.phase)
	b = append(b, `","ts":`...)
	b = appendMicros(b, ev.ts)
	if ev.phase == 'X' {
		b = append(b, `,"dur":`...)
		b = appendMicros(b, ev.dur)
	}
	b = append(b, `,"pid":1,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	if ev.phase == 'i' {
		b = append(b, `,"s":"t"`...)
	}
	b = append(b, `,"args":{`...)
	switch ev.phase {
	case 'C':
		b = append(b, `"value":`...)
		b = strconv.AppendFloat(b, ev.value, 'g', -1, 64)
		if ev.clock != 0 {
			b = append(b, `,"clock":`...)
			b = strconv.AppendUint(b, ev.clock, 10)
		}
	case 'X':
		b = append(b, `"start_clock":`...)
		b = strconv.AppendUint(b, ev.clock, 10)
		b = append(b, `,"end_clock":`...)
		b = strconv.AppendUint(b, uint64(ev.value), 10)
	default:
		b = append(b, `"clock":`...)
		b = strconv.AppendUint(b, ev.clock, 10)
	}
	b = append(b, `}}`...)
	return b
}

// appendMicros renders nanoseconds as decimal microseconds ("12.345"), the
// trace-event timestamp unit, without a float round-trip.
func appendMicros(b []byte, ns int64) []byte {
	if ns < 0 {
		b = append(b, '-')
		ns = -ns
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	if frac := ns % 1000; frac != 0 {
		b = append(b, '.')
		b = append(b, byte('0'+frac/100), byte('0'+(frac/10)%10), byte('0'+frac%10))
	}
	return b
}

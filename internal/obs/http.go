package obs

import (
	"encoding/json"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"time"
)

// Server exposes a registry and tracer over HTTP for live introspection of a
// run in flight:
//
//	/metrics       Prometheus text format
//	/metrics.json  registry snapshot as JSON
//	/progress      {"phase", "spans", "snapshot"} — the pipeline phase, the
//	               finished spans, and the caller-supplied progress snapshot
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP listener on addr (":0" picks a free port). progress,
// when non-nil, supplies the JSON-marshalable payload embedded in /progress
// (e.g. per-thread access counts mid-run). pprof mounts the net/http/pprof
// handlers under /debug/pprof/ so CPU, heap and goroutine profiles can be
// pulled from the same mux as /metrics; combined with the shard workers'
// runtime/pprof labels (shard=<k>), a CPU profile taken there attributes
// samples to individual shards. The server runs until Close.
func Serve(addr string, r *Registry, t *Tracer, progress func() any, pprof bool) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	if pprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteProm(w, r)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteJSON(w, r)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		payload := struct {
			Phase    string `json:"phase"`
			Spans    []Span `json:"spans"`
			Snapshot any    `json:"snapshot,omitempty"`
		}{Phase: t.Current(), Spans: t.Spans()}
		if progress != nil {
			payload.Snapshot = progress()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(payload)
	})
	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }

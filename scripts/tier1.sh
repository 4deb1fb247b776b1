#!/bin/sh
# tier1.sh — the repository's tier-1 verification gate (see ROADMAP.md).
# Build, formatting, vet, the full test suite (internal/contracts among it:
# the type-checked structural contracts, things that must stay deleted or
# out), a race-detector pass
# over the packages with lock-free hot paths (the paper's bloom signature), real
# concurrency (the executor's turn hand-off, the sharded analysis pipeline and its
# bounded buffer hand-off from the engine's one producer, the real-Go probe
# runtime's per-goroutine batches and watermark writer), merge-order algebra (comm),
# the static-coalescing differential wall (passes) and the observability
# primitives (obs timelines, tracers, histograms) plus a race pass over the
# whole facade (in-thread runs share the analysis engine with the live
# samplers and the /metrics and /progress scrapers, exactly as sharded runs
# do), a -cpu 1,2,4 pass over the packages whose tests involve more than one
# goroutine (no result may depend on how many cores the host has; the
# deterministic executor's threads are coroutines that Run's loop resumes in
# turn, and each full quantum goes to the analyser goroutine behind them,
# which stages it for the shard workers when sharded; the two
# experiment goldens run sharded rows, so their bytes may not either), a vet+test
# of the nested bench/ module, also under -cpu 1,2,4 (it compiles against
# internal APIs that `go build ./...` from the root does not reach, and its
# smoke is the one place the shard hand-off runs behind commprof.Replay with
# every optional layer on), plus a short fuzz smoke over
# the trace codec, Replay (its analyser goroutine's exits), the source
# instrumenter, the MiniPar lexer and parser (FuzzLex, FuzzParse), the
# MiniPar compiler (whose verifier's stack-depth
# interpretation also drives the coalescing pass), the coalescing pass and
# the signature's mask arena (with a release-and-reacquire round), a smoke
# run of the executor's turn hand-off benchmark (BenchmarkTurnHandOff, the
# layer meter of that switch) and of the signature's arena set-up benchmark
# (BenchmarkArenaSetUp: NewAsymmetric on a released arena, first touches on
# 1 % and 100 % of its lines, Release) and of ProfileTrace's benchmark
# (BenchmarkProfileTrace, the layer meter of the analyser ring: a stream of
# bench/'s synth-local shape, whose source and analyser stages hand quanta
# across the ring) at one and two cores, and an
# instrument+vet check of every example program under testdata/ via the
# commtrace driver. After "tier1: OK" it prints the non-test Go line count
# (scripts/loc.sh), as information only, not as a gate.
set -eu

cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go test =="
go test ./...

echo "== go test -race (sig, exec, pipeline, detect, redundancy, accuracy, trace, comm, patterns, metrics, instrument, passes, obs, probe) =="
go test -race ./internal/sig/... ./internal/exec/... ./internal/pipeline/... ./internal/detect/... \
	./internal/redundancy/... ./internal/accuracy/... ./internal/trace/... ./internal/comm/... \
	./internal/patterns/... ./internal/metrics/... ./internal/instrument/... ./internal/passes/... \
	./internal/obs/... ./probe/...

echo "== go test -race (facade) =="
go test -race .

echo "== go test -cpu 1,2,4 (facade) =="
go test -cpu 1,2,4 .

echo "== go test -cpu 1,2,4 -count 3 (detect, pipeline, sig, probe, exec, the facade walls across the engine sources' analyser hand-off and the sharded entry points, experiments queue + throughput + both goldens) =="
go test -cpu 1,2,4 -count 3 ./internal/detect/... ./internal/pipeline/... ./internal/sig/... ./probe/... ./internal/exec/...
go test -cpu 1,2,4 -count 3 -run '^(TestReportsIndependentOfCoreCount|TestRecordBytesPinned|TestQuantumBufferMatchesPerAccess|TestEngineSourcesLeaveNoGoroutine|TestReplayErrors|TestProfileTraceMatchesReplay|TestReplaySharded|TestProfileTraceParallelMatchesSerial|TestProfileSharded)$' .
go test -cpu 1,2,4 -count 3 -run 'TestQueueArchitecture|TestThroughputComparison|TestPaperSignatureGolden|TestExperimentsGolden' ./internal/experiments

echo "== turn hand-off benchmark smoke (exec) =="
go test -run '^$' -bench '^BenchmarkTurnHandOff$' -benchtime 2000x -cpu 1,2 ./internal/exec

echo "== arena set-up benchmark smoke (sig) =="
go test -run '^$' -bench '^BenchmarkArenaSetUp$' -benchtime 200x -cpu 1,2 ./internal/sig

echo "== analyser ring benchmark smoke (facade) =="
go test -run '^$' -bench '^BenchmarkProfileTrace$' -benchtime 20x -cpu 1,2 .

echo "== bench module: go vet + go test -cpu 1,2,4 =="
(cd bench && go vet . && go test -cpu 1,2,4 .)

echo "== commtrace -mode check (instrument + vet every example program) =="
for pkg in workerpool chanpipe striped exitpaths; do
	go run ./cmd/commtrace -mode check -pkg "./testdata/$pkg"
done

echo "== go test -fuzz smoke (trace codec, Replay, instrumenter, MiniPar lexer, parser, compiler and verifier, coalescing pass, mask arena) =="
for target in FuzzDecode FuzzDecoder FuzzStreamRoundTrip FuzzV3RoundTrip FuzzV3Decoder FuzzV3DecodeReference FuzzV3EncodeReference; do
	go test -run '^$' -fuzz "^${target}\$" -fuzztime 5s ./internal/trace
done
go test -run '^$' -fuzz '^FuzzReplay$' -fuzztime 5s .
go test -run '^$' -fuzz '^FuzzInstrument$' -fuzztime 5s ./internal/instrument
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 5s ./internal/minipar
go test -run '^$' -fuzz '^FuzzLex$' -fuzztime 5s ./internal/minipar
go test -run '^$' -fuzz '^FuzzCompile$' -fuzztime 5s ./internal/passes
go test -run '^$' -fuzz '^FuzzCoalesce$' -fuzztime 5s ./internal/passes
go test -run '^$' -fuzz '^FuzzMaskArena$' -fuzztime 5s ./internal/sig

echo "tier1: OK"
echo "non-test Go lines: $(sh scripts/loc.sh | awk 'END { print $1 }') (scripts/loc.sh; information, not a gate)" || true

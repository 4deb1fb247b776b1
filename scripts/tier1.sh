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
# deterministic executor's threads pass the turn to one another and each
# full quantum to the analyser goroutine behind them, which stages it for
# the shard workers when sharded; the two
# experiment goldens run sharded rows, so their bytes may not either), a vet+test
# of the nested bench/ module, also under -cpu 1,2,4 (it compiles against
# internal APIs that `go build ./...` from the root does not reach, and its
# smoke is the one place the shard hand-off runs behind commprof.Replay with
# every optional layer on), plus a short fuzz smoke over
# the trace codec, Replay (its analyser goroutine's exits), the source
# instrumenter, the coalescing pass and the signature's mask arena, and an
# instrument+vet check of every example program under testdata/ via the
# commtrace driver.
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

echo "== bench module: go vet + go test -cpu 1,2,4 =="
(cd bench && go vet . && go test -cpu 1,2,4 .)

echo "== commtrace -mode check (instrument + vet every example program) =="
for pkg in workerpool chanpipe striped exitpaths; do
	go run ./cmd/commtrace -mode check -pkg "./testdata/$pkg"
done

echo "== go test -fuzz smoke (trace codec, Replay, instrumenter, coalescing pass, mask arena) =="
for target in FuzzDecode FuzzDecoder FuzzStreamRoundTrip FuzzV3RoundTrip FuzzV3Decoder FuzzV3DecodeReference FuzzV3EncodeReference; do
	go test -run '^$' -fuzz "^${target}\$" -fuzztime 5s ./internal/trace
done
go test -run '^$' -fuzz '^FuzzReplay$' -fuzztime 5s .
go test -run '^$' -fuzz '^FuzzInstrument$' -fuzztime 5s ./internal/instrument
go test -run '^$' -fuzz '^FuzzCoalesce$' -fuzztime 5s ./internal/passes
go test -run '^$' -fuzz '^FuzzMaskArena$' -fuzztime 5s ./internal/sig

echo "tier1: OK"

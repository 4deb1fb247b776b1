#!/bin/sh
# tier1.sh — the repository's tier-1 verification gate (see ROADMAP.md).
# Build, formatting, vet, ten grep guards for things that must stay
# deleted or out (a trace-format knob or v1/v2 writer, a second copy of the
# run on a write path, the superseded benchmark harness, the sharded engine's overload
# policies and hand-rolled ring, an analyser option spelled out by hand beside
# the one flag table, an internal/ export only tests call, the bloom reader-set
# layout outside the experiments, package unsafe in the analysis path, a
# shared twin of the single-owner analyser, pattern-classifier training on a
# run path), the
# full test suite, a
# race-detector pass
# over the packages with lock-free hot paths (the paper's bloom signature), real
# concurrency (the parallel engine mode, the sharded analysis pipeline and its
# bounded buffer hand-off, replay producer staging, the real-Go probe runtime's
# per-goroutine batches and watermark writer), merge-order algebra (comm),
# the static-coalescing differential wall (passes) and the observability
# primitives (obs timelines, tracers, histograms) plus a race pass over the
# whole facade (in-thread runs share the analysis engine with the live
# samplers and the /metrics and /progress scrapers, exactly as sharded runs
# do), a -cpu 1,2,4 pass over the packages whose tests involve more than one
# goroutine (no result may depend on how many cores the host has), a vet+test
# of the nested bench/ module, also under -cpu 1,2,4 (it compiles against
# internal APIs that `go build ./...` from the root does not reach, and its
# smoke is the one place the shard hand-off runs behind commprof.Replay with
# every optional layer on), plus a short fuzz smoke over
# the trace codec, the source instrumenter and the coalescing pass, and an
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

echo "== grep guards =="
guard() { # guard <what> <matches>
	if [ -n "$2" ]; then
		echo "tier1: $1:" >&2
		echo "$2" >&2
		exit 1
	fi
}
# One trace format is written (v3): no option, flag or environment variable
# may select another, no mode converts a trace into another, and no non-test
# code writes the fixed 29-byte v1/v2 record. v1 and v2 are decode-only; the
# test writer in internal/trace/export_test.go makes their bytes for the
# decoder's tests. (Whole word: TestTraceFormatComposes... is a test name.
# bench/ still exports the variable the shim used to read.)
guard "a trace-format knob is back" \
	"$(grep -rnE --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build '\<TraceFormat\>|TRACE_FORMAT' . || true
	grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build \
		'"(trace-format|recode)"|writeFixedRecord|accessRecLen.*(Write|Put|Append)|(Write|Put|Append)[A-Za-z0-9]*\(.*accessRecLen|PutUint(32|64)\(rec\[|Write\(rec\[' . || true)"
# Write paths stream through trace.Encoder; none holds the run as a slice of
# access records first.
guard "a write path materialises the run" \
	"$(grep -n 'Accesses = append(' ./*.go cmd/commtrace/*.go | grep -v '_test\.go:' || true)"
# bench/ is the one benchmark harness.
guard "the superseded benchmark harness is cited" \
	"$(grep -rnIE --exclude-dir=bench --exclude-dir=.bench_build --exclude-dir=.git \
		--exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md \
		'scripts/bench\.sh|BENCH_[a-z]+\.json' . || true)"
# The sharded engine has one overload behaviour (backpressure) and one
# hand-off (buffers over a channel). sync.Cond is the deleted ring's
# signature, so it is looked for in internal/pipeline only: internal/exec's
# barrier uses one legitimately.
guard "an overload policy or a hand-rolled ring is back" \
	"$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build \
		'OverloadPolicy|ShardPolicy|ShardBatchSize|shard-policy|shard-batch|DegradeBurst|AutoStallPerSec' . || true
	grep -rn --include='*.go' --exclude='*_test.go' 'sync\.Cond' internal/pipeline || true)"
# The analyser's flags are declared once, in flags.go's BindFlags, and cross
# into an instrumented program as the one variable COMMPROF_OPTS: no frontend
# declares one of the nine names itself, and the per-option variables and their
# parser stay gone.
guard "an analyser option is spelled out by hand again" \
	"$(grep -rnE --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build \
		'COMMPROF_(SHARDS|PHASES|GRANULARITY|REDUNDANCY_BITS|SIG)\>|\<envInt\>' . || true
	grep -nE 'fs\.[A-Za-z0-9]+\(([^,"]*, *)?"(sig|phases|sample|granularity|shards|shard-queue|redundancy-bits|accuracy-bits|accuracy-target)"' \
		cmd/commprof/*.go cmd/commtrace/*.go probe/*.go || true)"
# Every exported func in internal/ is named by some non-test Go file (bench/
# counts as a caller) outside its own declaration: what only tests call is
# deleted, or unexported beside an in-package test. A package-level func is
# used when code outside its package names it qualified (<pkg>.<Name>, or
# through an import alias) or code inside calls it bare (<Name>( after no
# dot), so a same-named call elsewhere (filepath.Dir, format.Source, the
# other packages' New) hides nothing. A method is used when any code names it.
testonly_exports() {
	code=$(find . -name '*.go' ! -name '*_test.go' -not -path './.bench_build/*' -not -path './.git/*' \
		-exec grep -Hv '^[[:space:]]*//' {} +)
	for dir in $(find internal -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do
		inside=$(printf '%s\n' "$code" | grep "^\./$dir/[^/]*:" || true)
		outside=$(printf '%s\n' "$code" | grep -v "^\./$dir/[^/]*:" || true)
		names=$(printf '%s\n' "$outside" | sed -nE "s|^[^:]*:[[:space:]]*([A-Za-z_][A-Za-z0-9_]*) \"commprof/$dir\"\$|\1|p" | sort -u)
		qual="($(echo "${dir##*/}" $names | tr ' ' '|'))"
		printf '%s\n' "$inside" | sed -nE 's/^[^:]*:func (\([^)]*\) )?([A-Z][A-Za-z0-9_]*).*/\2 \1/p' | sort -u |
			while read -r name recv; do
			case $name in
			# murmur: the reference HashAddr and HashAddrPair are tested against.
			Sum128) continue ;;
			# interp: bounds the fuzz harness of internal/passes from another package.
			SetMaxSteps) continue ;;
			esac
			decl="^[^:]*:func (\([^)]*\) )?$name\("
			if [ -n "$recv" ]; then
				n=$(printf '%s\n' "$code" | grep -w -- "$name" | grep -cvE "$decl" || true)
			else
				n=$({
					printf '%s\n' "$outside" | grep -E "(^|[^A-Za-z0-9_.])$qual\.$name([^A-Za-z0-9_]|\$)"
					printf '%s\n' "$inside" | grep -E "(^|[^A-Za-z0-9_.])$name\(" | grep -vE "$decl"
				} | grep -c . || true)
			fi
			if [ "$n" -eq 0 ]; then echo "$dir.$name"; fi
		done
	done
}
guard "a test-only export is back in internal/" "$(testonly_exports)"
# The profiler's reader sets have one layout, the exact mask arena
# (sig.Asymmetric); the paper's per-slot bloom filters (sig.Bloom) serve only
# the reproduction experiments. No code outside internal/sig imports the
# filter, none outside internal/experiments builds sig.Bloom, and the rate
# knob, the layout switch and the fill telemetry the filters fed stay deleted
# (-fpr as a flag: "fpr" is also an experiment ID).
guard "the bloom reader-set layout is back in production" \
	"$(grep -rln --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build \
		'"commprof/internal/bloom"' . | grep -v '^\./internal/sig/' || true
	grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build \
		'sig\.NewBloom' . | grep -v '^\./internal/experiments/' || true
	grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build \
		'PaperBloom|BloomFPRate|FillAlarmRatio|FillTrajectory|sig_(bloom_)?fill_ratio|sig_filter_allocs|(fs|flag)\.[A-Za-z0-9]+\(([^,"]*, *)?"fpr"' . || true)"
# The single-owner kernel reads and writes plain []uint64/[]int32 arrays; it
# may not reach any other structure by casting.
guard "package unsafe is imported on the analysis path" \
	"$(grep -rn --include='*.go' '"unsafe"' internal/sig internal/detect internal/comm internal/redundancy internal/pipeline || true)"
# Every detector has one owner, one caller at a time (DESIGN §5); under
# Options.Parallel the facade serialises the program's threads itself. So no
# ownership option comes back (detect's SingleOwner, pipeline.Options'
# Concurrent), nor an owned-only matrix add, an Own switch on the signature,
# the mask arena's CAS loop or an atomic matrix. (sig.Bloom, the paper's
# layout, keeps its CAS in bloom.go.)
guard "a shared twin of the single-owner analyser is back" \
	"$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build \
		'SingleOwner|AddOwned|func \(s \*Asymmetric\) Own' . || true
	grep -nE '^[[:space:]]+Concurrent[[:space:]]' internal/pipeline/pipeline.go || true
	grep -n 'CompareAndSwap' internal/sig/sig.go || true
	grep -n '"sync/atomic"' internal/comm/matrix.go || true)"
# No run trains the §VI classifier: the phase layer classifies with the
# shipped model (patterns.DefaultKNN), and corpora and kNNs are built only
# where the recipe lives (patterns.TrainKNN) and by the experiments.
guard "a run path trains the pattern classifier" \
	"$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build \
		'patterns\.Corpus\(|NewKNN\(' . | grep -vE '^\./internal/(patterns|experiments)/' || true
	grep -nE 'NewPatternClassifier|TrainKNN' phases.go || true)"

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

echo "== go test -cpu 1,2,4 -count 3 (detect, pipeline, sig, probe, experiments queue + throughput) =="
go test -cpu 1,2,4 -count 3 ./internal/detect/... ./internal/pipeline/... ./internal/sig/... ./probe/...
go test -cpu 1,2,4 -count 3 -run 'TestQueueArchitecture|TestThroughputComparison' ./internal/experiments

echo "== bench module: go vet + go test -cpu 1,2,4 =="
(cd bench && go vet . && go test -cpu 1,2,4 .)

echo "== commtrace -mode check (instrument + vet every example program) =="
for pkg in workerpool chanpipe striped exitpaths; do
	go run ./cmd/commtrace -mode check -pkg "./testdata/$pkg"
done

echo "== go test -fuzz smoke (trace codec, instrumenter, coalescing pass) =="
for target in FuzzDecode FuzzDecoder FuzzStreamRoundTrip FuzzV3RoundTrip FuzzV3Decoder FuzzV3DecodeReference; do
	go test -run '^$' -fuzz "^${target}\$" -fuzztime 5s ./internal/trace
done
go test -run '^$' -fuzz '^FuzzInstrument$' -fuzztime 5s ./internal/instrument
go test -run '^$' -fuzz '^FuzzCoalesce$' -fuzztime 5s ./internal/passes

echo "tier1: OK"

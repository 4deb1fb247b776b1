package commprof

import (
	"runtime"

	"commprof/internal/pipeline"
)

// pipelineReport snapshots a closed engine's shard configuration and load.
func pipelineReport(pe *pipeline.Engine) *PipelineReport {
	sstats := pe.ShardStats()
	rep := &PipelineReport{
		Shards:               pe.Shards(),
		QueueCapacity:        pe.QueueCapacity(),
		BatchSize:            pe.BatchSize(),
		ProducerFlushes:      pe.ProducerFlushes(),
		PeakResidentAccesses: pe.PeakResidentAccesses(),
		PeakDepths:           make([]int, len(sstats)),
		ShardProcessed:       make([]uint64, len(sstats)),
	}
	for i, s := range sstats {
		rep.PeakDepths[i] = s.PeakDepth
		rep.ShardProcessed[i] = s.Processed
	}
	return rep
}

// ProfileTraceParallel is ProfileTrace on the sharded parallel engine with a
// default: Options.AnalysisShards 0 means GOMAXPROCS shards here rather than
// in-thread analysis. Addresses are hashed across the shards, each with a
// private partition of the signature budget and its own worker. On a
// collision-free run the result is identical to ProfileTrace's in-thread one;
// with the approximate asymmetric signature the expected false-positive rate
// matches but the specific collisions differ (see the internal/pipeline
// package documentation).
func ProfileTraceParallel(accesses []Access, regions []Region, threads int, opts Options) (*Report, error) {
	if opts.AnalysisShards == 0 {
		opts.AnalysisShards = runtime.GOMAXPROCS(0)
	}
	return ProfileTrace(accesses, regions, threads, opts)
}

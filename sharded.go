package commprof

import "commprof/internal/pipeline"

// pipelineReport snapshots a closed engine's shard configuration and load.
func pipelineReport(pe *pipeline.Engine) *PipelineReport {
	sstats := pe.ShardStats()
	rep := &PipelineReport{
		Shards:               pe.Shards(),
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

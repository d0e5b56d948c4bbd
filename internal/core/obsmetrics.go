package core

import "qbeep/internal/obs"

// Package-level metric handles: resolved once so hot paths pay a single
// atomic op per update (see internal/obs).
var (
	metGraphBuild  = obs.Default.Timer("core.graph.build")
	metGraphVerts  = obs.Default.Gauge("core.graph.vertices")
	metGraphEdges  = obs.Default.Gauge("core.graph.edges")
	metGraphPruned = obs.Default.Gauge("core.graph.pruned_edges")
	metGraphRadius = obs.Default.Gauge("core.graph.radius")
	// Edge-scan strategy counters: how often each discovery path of
	// edgescan.go was selected, or the spectrum replaced the scan.
	metGraphScanPairs    = obs.Default.Counter("core.graph.scan_pairs")
	metGraphScanSphere   = obs.Default.Counter("core.graph.scan_sphere")
	metGraphScanSpectrum = obs.Default.Counter("core.graph.scan_spectrum")

	metMitigateRuns  = obs.Default.Counter("core.mitigate.runs")
	metMitigateIters = obs.Default.Counter("core.mitigate.iterations")
	// Iterations the adaptive ConvergeTol early exit skipped relative to
	// the configured schedule (0 for fixed-schedule runs).
	metMitigateSaved = obs.Default.Counter("core.mitigate.iterations_saved")
	metMitigate      = obs.Default.Timer("core.mitigate")
	metFlowMoved     = obs.Default.Histogram("core.mitigate.flow_moved")
	metFinalL1       = obs.Default.Histogram("core.mitigate.final_l1_delta")
	// Convergence telemetry (paper Fig. 7(c) territory): per-iteration
	// residual flow for every run, per-iteration Hellinger distance to
	// the ideal for tracked runs.
	metIterFlow  = obs.Default.Histogram("core.mitigate.iter_flow")
	metHellinger = obs.Default.Histogram("core.mitigate.hellinger")

	// Quality observatory (DESIGN.md §16): the raw→mitigated Hellinger
	// shift of every run, worst sample stamped with its trace ID. The
	// companion quality.pst_improvement histogram is observed where
	// ground truth lives (internal/experiments); the per-backend
	// quality.lambda labeled gauge is set by EstimateLambda.
	metQualityShift = obs.Default.Histogram("quality.hellinger_shift")
)

package experiments

import (
	"context"
	"sync"
	"sync/atomic"

	"qbeep/internal/bitstring"
	"qbeep/internal/metrics"
	"qbeep/internal/obs"
	"qbeep/internal/runledger"
)

// Quality capture for experiment workloads: every runWorkload feeds
// (1) the quality.pst_improvement histogram on /metrics, (2) the
// in-process aggregator that backs the RunReport's per-figure quality
// summary, and (3) — when -run-ledger is active — one runledger.Record
// with the full Hamming-spectrum quality block. Ground truth is always
// available here (the simulator produces the ideal distribution), so
// these are the records make quality-gate pins.

// metQualityPST is the mitigated/raw PST improvement ratio of every
// deterministic workload (paper Eq. 6 territory).
var metQualityPST = obs.Default.Histogram("quality.pst_improvement")

// activeFigure tags quality samples and ledger records with the figure
// whose runner is executing. Figures run serially (the CLI walks its
// table through RunReport.RunFigure), but workloads inside one figure
// fan out through par — hence an atomic, written by RunFigure only.
var activeFigure atomic.Value // string

func currentFigure() string {
	if v, ok := activeFigure.Load().(string); ok {
		return v
	}
	return ""
}

// qualitySample is one workload's contribution to the report summary.
type qualitySample struct {
	figure         string
	hellingerShift float64
	fidelityRaw    float64
	fidelityQB     float64
	pstImprovement float64 // 0 when the workload is not deterministic
}

// qualityAgg is the process-global aggregator, reset by NewRunReport
// (one report per process run, matching the obs metrics snapshot).
var (
	qualityMu      sync.Mutex
	qualitySamples []qualitySample
)

func resetQualitySamples() {
	qualityMu.Lock()
	qualitySamples = nil
	qualityMu.Unlock()
}

// FigureQuality is one figure's quality aggregate in the RunReport.
type FigureQuality struct {
	Figure string `json:"figure"`
	N      int    `json:"n"`
	// HellingerShift summarizes how far induction moved each workload's
	// distribution; Fidelity* summarize Bhattacharyya fidelity against
	// the simulator's ideal distribution.
	HellingerShift    runledger.Stats `json:"hellinger_shift"`
	FidelityRaw       runledger.Stats `json:"fidelity_raw"`
	FidelityMitigated runledger.Stats `json:"fidelity_mitigated"`
	// PSTImprovement covers only the figure's deterministic workloads
	// (N may be smaller than the group's).
	PSTImprovement runledger.Stats `json:"pst_improvement"`
}

// qualitySummary folds the collected samples into per-figure
// aggregates, sorted by figure ID.
func qualitySummary() []FigureQuality {
	qualityMu.Lock()
	samples := append([]qualitySample(nil), qualitySamples...)
	qualityMu.Unlock()
	byFigure := map[string][]qualitySample{}
	for _, s := range samples {
		byFigure[s.figure] = append(byFigure[s.figure], s)
	}
	var out []FigureQuality
	for _, fig := range sortedKeys(byFigure) {
		ss := byFigure[fig]
		fq := FigureQuality{Figure: fig, N: len(ss)}
		var shift, fraw, fqb, pst []float64
		for _, s := range ss {
			shift = append(shift, s.hellingerShift)
			fraw = append(fraw, s.fidelityRaw)
			fqb = append(fqb, s.fidelityQB)
			if s.pstImprovement > 0 {
				pst = append(pst, s.pstImprovement)
			}
		}
		fq.HellingerShift = runledger.Summarize(shift)
		fq.FidelityRaw = runledger.Summarize(fraw)
		fq.FidelityMitigated = runledger.Summarize(fqb)
		fq.PSTImprovement = runledger.Summarize(pst)
		out = append(out, fq)
	}
	return out
}

// recordQuality is runWorkload's quality epilogue: o is the completed
// outcome, q the core loop's quality block, mitigateWallS the duration
// of the mitigation span. It adds the workload's ground truth (fidelity
// and Hellinger pairs, and PST and IST on deterministic workloads, whose
// exact expected bitstring also replaces core's mode-derived spectrum
// center), observes the PST-improvement histogram, feeds the report
// aggregator, and appends a ledger record, stamped with the trace
// active in ctx, when one is installed.
func recordQuality(ctx context.Context, o *Outcome, q runledger.Quality, mitigateWallS float64) {
	fRaw, fQB, _ := o.fidelity3()
	q.FidelityRaw, q.FidelityMitigated = fRaw, fQB
	q.HellingerRaw = bitstring.HellingerFromFidelity(fRaw)
	q.HellingerMitigated = bitstring.HellingerFromFidelity(fQB)

	if o.Workload.Deterministic {
		e := o.Workload.Expected
		q.PSTRaw, q.PSTMitigated = o.Raw.Prob(e), o.QBeep.Prob(e)
		q.PSTImprovement = metrics.SafeRatio(q.PSTRaw, q.PSTMitigated, 0)
		if q.PSTImprovement > 0 {
			metQualityPST.Observe(q.PSTImprovement)
		}
		if v, ok := metrics.IST(o.QBeep, e); ok {
			q.IST = v
		}
		// Exact ground truth beats core's ideal-mode center.
		q.SpectrumRef = "expected"
		q.SpectrumBefore = o.Raw.HammingSpectrum(e)
		q.SpectrumAfter = o.QBeep.HammingSpectrum(e)
	}

	fig := currentFigure()
	qualityMu.Lock()
	qualitySamples = append(qualitySamples, qualitySample{
		figure:         fig,
		hellingerShift: q.HellingerShift,
		fidelityRaw:    fRaw,
		fidelityQB:     fQB,
		pstImprovement: q.PSTImprovement,
	})
	qualityMu.Unlock()

	if !obs.RunLedgerEnabled() {
		return
	}
	rec := runledger.Record{
		Tool:        "qbeep-experiments",
		TraceID:     obs.TraceIDFrom(ctx),
		Figure:      fig,
		Backend:     o.Backend.Name,
		Circuit:     o.Workload.Circuit.Name,
		CircuitHash: runledger.HashBytes([]byte(o.Workload.Circuit.Name)),
		Lambda:      o.Lambda.Lambda(),
		Shots:       o.Raw.Total(),
		Stages:      []runledger.Stage{{Name: "mitigate", WallS: mitigateWallS}},
		Quality:     q,
	}
	if err := obs.RecordRun(&rec); err != nil {
		obs.Logger().Warn("run-ledger append failed", "err", err)
	}
}

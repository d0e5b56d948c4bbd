// Package runledger is the append-only quality ledger for mitigation
// runs (DESIGN.md §16). Every mitigated execution — the qbeep CLI, the
// simulator, an experiment workload — can append one Record to an
// NDJSON file; cmd/qbeep-ledger aggregates those records, watches the
// λ and Hellinger-shift series for drift (EWMA + CUSUM control
// charts), and gates HEAD against a pinned QUALITY_baseline.json the
// same way cmd/qbeep-bench gates benchmark ratios.
//
// The package is deliberately dependency-light (stdlib only): it is
// imported by internal/obs, whose recorder stamps wall-clock time and
// buildinfo, so runledger itself must not reach back into obs.
package runledger

import (
	"crypto/sha256"
	"encoding/hex"
)

// SchemaVersion is stamped into every record so readers can reject or
// migrate ledgers written by a different layout.
const SchemaVersion = 1

// Record is one mitigation run. Identity fields (tool, backend,
// circuit, circuit hash) locate the run; the quality block carries the
// Hamming-spectrum metrics the paper optimizes (Q-BEEP §IV). Optional
// fields use omitempty so records stay one short NDJSON line.
type Record struct {
	Schema int `json:"schema"`
	// Seq is the append order within one ledger file, stamped by the
	// Writer. It gives drift detection a stable sample order even when
	// the wall-clock Time field ties at second resolution.
	Seq int64 `json:"seq"`
	// Time is RFC3339 wall-clock time, stamped by the obs recorder (not
	// the Writer) so pure-runledger round-trip tests stay deterministic.
	Time      string `json:"time,omitempty"`
	Tool      string `json:"tool,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	// TraceID links the record to the span tree in the -trace NDJSON
	// (obs.TraceIDFrom); 0 means the run was untraced.
	TraceID uint64 `json:"trace,omitempty"`
	// Figure tags records emitted by qbeep-experiments with the figure
	// that produced them ("7", "qasmbench", ...).
	Figure      string  `json:"figure,omitempty"`
	Backend     string  `json:"backend,omitempty"`
	Circuit     string  `json:"circuit,omitempty"`
	CircuitHash string  `json:"circuit_hash,omitempty"`
	Lambda      float64 `json:"lambda,omitempty"`
	Shots       float64 `json:"shots,omitempty"`
	Stages      []Stage `json:"stages,omitempty"`
	Quality     Quality `json:"quality"`
}

// Stage is one timed pipeline phase (load, estimate, mitigate, ...).
// WallS is the duration of the span that covered the phase; the
// record's trace ID leads to that span and its CPU and allocation
// deltas.
type Stage struct {
	Name  string  `json:"name"`
	WallS float64 `json:"wall_s"`
}

// Quality is the mitigation-quality block. HellingerShift is always
// present (raw vs mitigated needs no ground truth); the *Raw /
// *Mitigated pairs and PST/IST are populated only when the caller
// knows the ideal distribution or correct bitstring.
type Quality struct {
	// HellingerShift is H(raw, mitigated): how far Bayesian induction
	// moved the distribution. Zero means mitigation was a no-op.
	HellingerShift float64 `json:"hellinger_shift"`
	// Hellinger distance to the ground-truth distribution, before and
	// after mitigation (lower is better).
	HellingerRaw       float64 `json:"hellinger_raw,omitempty"`
	HellingerMitigated float64 `json:"hellinger_mitigated,omitempty"`
	// Bhattacharyya fidelity against ground truth (higher is better).
	FidelityRaw       float64 `json:"fidelity_raw,omitempty"`
	FidelityMitigated float64 `json:"fidelity_mitigated,omitempty"`
	// Probability of Successful Trial (paper Eq. 6) and the mitigated /
	// raw improvement ratio, for deterministic circuits.
	PSTRaw         float64 `json:"pst_raw,omitempty"`
	PSTMitigated   float64 `json:"pst_mitigated,omitempty"`
	PSTImprovement float64 `json:"pst_improvement,omitempty"`
	// IST is Inference Strength: P(correct) over the strongest
	// incorrect outcome's probability, after mitigation.
	IST float64 `json:"ist,omitempty"`
	// PosteriorEntropy is the Shannon entropy (bits) of the mitigated
	// distribution — a sharpening indicator across calibration drift.
	PosteriorEntropy float64 `json:"posterior_entropy,omitempty"`
	// Flow-iteration telemetry from the state-graph solver.
	Iterations int  `json:"iterations,omitempty"`
	Converged  bool `json:"converged,omitempty"`
	// Per-Hamming-distance probability mass around SpectrumRef
	// ("expected" when ground truth is known, "mode" otherwise),
	// before and after mitigation. Index i is distance i.
	SpectrumRef    string    `json:"spectrum_ref,omitempty"`
	SpectrumBefore []float64 `json:"spectrum_before,omitempty"`
	SpectrumAfter  []float64 `json:"spectrum_after,omitempty"`
}

// HashBytes returns the ledger's circuit-hash form of src: the first
// 12 hex digits of SHA-256, enough to group records by circuit without
// bloating every line.
func HashBytes(src []byte) string {
	sum := sha256.Sum256(src)
	return hex.EncodeToString(sum[:6])
}

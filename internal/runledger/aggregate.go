package runledger

import (
	"math"
	"sort"

	"qbeep/internal/mathx"
)

// Metric names understood by Aggregate, drift detection, and the
// baseline gate. Each extracts one float64 series from a record slice;
// records where the field is absent (zero and not meaningful) are
// skipped per metric, so "pst_improvement" aggregates only runs with
// ground truth.
const (
	MetricLambda             = "lambda"
	MetricHellingerShift     = "hellinger_shift"
	MetricHellingerMitigated = "hellinger_mitigated"
	MetricFidelityMitigated  = "fidelity_mitigated"
	MetricPSTImprovement     = "pst_improvement"
	MetricPSTMitigated       = "pst_mitigated"
	MetricPosteriorEntropy   = "posterior_entropy"
	MetricMitigateWallS      = "mitigate_wall_s"
)

// MetricNames lists every metric in presentation order.
var MetricNames = []string{
	MetricLambda,
	MetricHellingerShift,
	MetricHellingerMitigated,
	MetricFidelityMitigated,
	MetricPSTMitigated,
	MetricPSTImprovement,
	MetricPosteriorEntropy,
	MetricMitigateWallS,
}

// MetricValue extracts the named metric from rec. ok is false when the
// record does not carry the metric (no ground truth, no such stage).
func MetricValue(rec *Record, metric string) (v float64, ok bool) {
	q := &rec.Quality
	switch metric {
	case MetricLambda:
		return rec.Lambda, rec.Lambda > 0
	case MetricHellingerShift:
		return q.HellingerShift, true
	case MetricHellingerMitigated:
		return q.HellingerMitigated, q.HellingerMitigated > 0 || q.FidelityMitigated > 0
	case MetricFidelityMitigated:
		return q.FidelityMitigated, q.FidelityMitigated > 0
	case MetricPSTMitigated:
		return q.PSTMitigated, q.PSTMitigated > 0
	case MetricPSTImprovement:
		return q.PSTImprovement, q.PSTImprovement > 0
	case MetricPosteriorEntropy:
		return q.PosteriorEntropy, q.PosteriorEntropy != 0
	case MetricMitigateWallS:
		for _, s := range rec.Stages {
			if s.Name == "mitigate" {
				return s.WallS, true
			}
		}
		return 0, false
	}
	return 0, false
}

// Series extracts the named metric from records that carry it, in
// slice order (which is Seq order for a ledger read back from disk).
func Series(recs []Record, metric string) []float64 {
	var out []float64
	for i := range recs {
		if v, ok := MetricValue(&recs[i], metric); ok {
			out = append(out, v)
		}
	}
	return out
}

// Filter returns the records matching every non-empty criterion.
// Circuit matches either the circuit name or the circuit hash, so
// users can paste whichever the ledger line shows.
type Filter struct {
	Backend string
	Circuit string
	Figure  string
	Tool    string
}

// Apply returns the matching subset of recs, preserving order.
func (f Filter) Apply(recs []Record) []Record {
	if f == (Filter{}) {
		return recs
	}
	var out []Record
	for _, r := range recs {
		if f.Backend != "" && r.Backend != f.Backend {
			continue
		}
		if f.Circuit != "" && r.Circuit != f.Circuit && r.CircuitHash != f.Circuit {
			continue
		}
		if f.Figure != "" && r.Figure != f.Figure {
			continue
		}
		if f.Tool != "" && r.Tool != f.Tool {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Stats is a summary of one metric series.
type Stats struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Summarize computes Stats over series (order-insensitive).
func Summarize(series []float64) Stats {
	s := Stats{N: len(series)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), series...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	s.Mean = sum / float64(s.N)
	s.Min = sorted[0]
	s.Max = sorted[s.N-1]
	s.P50 = mathx.Quantile(sorted, 0.50)
	s.P95 = mathx.Quantile(sorted, 0.95)
	return s
}

// Group is one aggregation bucket: the records sharing a (backend,
// circuit) key, summarized per metric.
type Group struct {
	Backend string           `json:"backend,omitempty"`
	Circuit string           `json:"circuit,omitempty"`
	N       int              `json:"n"`
	Metrics map[string]Stats `json:"metrics"`
}

// GroupBy selects the aggregation key.
type GroupBy int

const (
	// ByBackend buckets records per backend.
	ByBackend GroupBy = iota
	// ByCircuit buckets per circuit (falling back to circuit hash when
	// the name is empty).
	ByCircuit
	// ByBackendCircuit buckets per (backend, circuit) pair.
	ByBackendCircuit
)

// Aggregate buckets recs by key and summarizes every metric that at
// least one record in the bucket carries. Groups come back sorted by
// (backend, circuit).
func Aggregate(recs []Record, by GroupBy) []Group {
	type key struct{ backend, circuit string }
	buckets := map[key][]Record{}
	for _, r := range recs {
		circuit := r.Circuit
		if circuit == "" {
			circuit = r.CircuitHash
		}
		k := key{}
		switch by {
		case ByBackend:
			k.backend = r.Backend
		case ByCircuit:
			k.circuit = circuit
		case ByBackendCircuit:
			k.backend, k.circuit = r.Backend, circuit
		}
		buckets[k] = append(buckets[k], r)
	}
	keys := make([]key, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].backend != keys[j].backend {
			return keys[i].backend < keys[j].backend
		}
		return keys[i].circuit < keys[j].circuit
	})
	out := make([]Group, 0, len(keys))
	for _, k := range keys {
		rs := buckets[k]
		g := Group{Backend: k.backend, Circuit: k.circuit, N: len(rs), Metrics: map[string]Stats{}}
		for _, m := range MetricNames {
			if series := Series(rs, m); len(series) > 0 {
				g.Metrics[m] = Summarize(series)
			}
		}
		out = append(out, g)
	}
	return out
}

// meanStd returns the sample mean and Bessel-corrected standard
// deviation (the drift charts freeze these from a short warmup, so
// the unbiased estimator matters).
func meanStd(series []float64) (mean, std float64) {
	if len(series) == 0 {
		return 0, 0
	}
	for _, v := range series {
		mean += v
	}
	mean /= float64(len(series))
	if len(series) == 1 {
		return mean, 0
	}
	var ss float64
	for _, v := range series {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(series)-1))
}

// Package qbeep implements Q-BEEP — Quantum Bayesian Error mitigation
// Employing Poisson modeling over the Hamming spectrum (Stein et al.,
// ISCA 2023) — together with the full substrate needed to evaluate it:
// a circuit IR and OpenQASM 2.0 bridge, a state-vector simulator, a
// transpiler, synthetic calibrated backends, a hardware-style noise
// executor, the HAMMER baseline, and runners for every figure in the
// paper's evaluation.
//
// The package surface is the post-processing workflow a vendor or user
// applies after running a circuit:
//
//	counts := map[string]float64{"1011": 3800, "1010": 120, ...}
//	ctx := context.Background()
//	lambda, _ := qbeep.EstimateLambdaQASMCtx(ctx, qasmSource, "istanbul")
//	mitigated, _ := qbeep.MitigateCtx(ctx, counts, lambda.Total(), qbeep.NewOptions())
//
// Every operation that parses, transpiles, simulates or mitigates takes
// a context first: its spans parent under the span active in ctx, and a
// cancelled ctx stops transpilation, simulation and mitigation with
// ctx's error.
//
// For experimentation without hardware, SimulateCtx runs the whole pipeline
// (parse → transpile → noisy induction → λ estimation) against the
// synthetic backend catalog. The cmd/ binaries and examples/ programs are
// built on this surface; the paper's figures are regenerated by
// cmd/qbeep-experiments and the benchmarks in bench_test.go.
package qbeep

import (
	"context"
	"fmt"

	"qbeep/internal/bitstring"
	"qbeep/internal/core"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/noise"
	"qbeep/internal/qasm"
	"qbeep/internal/runledger"
	"qbeep/internal/transpile"
)

// Counts maps measurement bit-strings (most-significant qubit first, the
// vendor-SDK convention) to observation counts. Fractional counts are
// allowed: mitigation redistributes flow.
type Counts = map[string]float64

// QualityStats is the end-of-run quality block delivered to
// Options.OnQuality: the raw→mitigated Hellinger shift, posterior
// entropy, iteration count and convergence, and the per-Hamming-distance
// mass spectrum before and after mitigation (tracked runs add the
// fidelity and Hellinger pairs against the ideal). It is the quality
// block of a run-ledger record (cmd/qbeep -run-ledger).
type QualityStats = runledger.Quality

// Options configures the iterative state-graph mitigation. The zero value
// is invalid; use NewOptions for the paper's published configuration
// (ε = 0.05, 20 iterations, 1/n learning rate). Mitigation is always
// exact: the state graph keeps every edge whose weight passes ε.
type Options struct {
	// Iterations is the number of Bayesian state-graph update rounds.
	Iterations int
	// Epsilon is the edge-weight threshold ε: edges whose Poisson shell
	// mass falls below it are not materialized, bounding the graph size.
	Epsilon float64
	// ConvergeTol, when positive, stops the update loop early once the
	// per-iteration Hellinger delta falls to or below the tolerance. Zero
	// (the default) keeps the paper's fixed schedule and is bitwise
	// identical to it.
	ConvergeTol float64
	// OnQuality, when non-nil, receives the end-of-run QualityStats once
	// the mitigation loop finishes. It is called synchronously, after the
	// last iteration and before MitigateCtx returns.
	OnQuality func(QualityStats)
}

// coreOptions converts the public options to the mitigation core's.
func (o Options) coreOptions() core.Options {
	return core.Options{
		Iterations:  o.Iterations,
		Epsilon:     o.Epsilon,
		ConvergeTol: o.ConvergeTol,
		OnQuality:   o.OnQuality,
	}
}

// NewOptions returns the paper's defaults.
func NewOptions() Options {
	return Options{Iterations: 20, Epsilon: 0.05}
}

// Lambda is the Eq. 2 rate estimate, itemized by source.
type Lambda struct {
	T1    float64 // relaxation term Σ_q (1 - e^(-t/T1_q))
	T2    float64 // dephasing term Σ_q (1 - e^(-t/T2_q))
	Gates float64 // gate-infidelity term Σ_g σ_g·U_count(g)
	Time  float64 // scheduled circuit duration in seconds
}

// Total returns the combined Poisson rate λ.
func (l Lambda) Total() float64 { return l.T1 + l.T2 + l.Gates }

// MitigateCtx applies Q-BEEP to raw counts with the pre-induction rate
// lambda and returns the mitigated distribution (same total mass). All
// keys must share one register width. The "core.mitigate" span (and its
// per-iteration children) parents under the span active in ctx, so CLI
// pipeline roots see the mitigation subtree; a cancelled ctx stops the
// run before the next flow iteration.
func MitigateCtx(ctx context.Context, counts Counts, lambda float64, opts Options) (Counts, error) {
	dist, err := bitstring.FromStringCounts(counts)
	if err != nil {
		return nil, err
	}
	out, err := core.MitigateCtx(ctx, dist, lambda, opts.coreOptions())
	if err != nil {
		return nil, err
	}
	return out.StringCounts(), nil
}

// MitigateTrackedCtx is MitigateCtx plus the per-iteration fidelity
// trace against a known ideal distribution (useful for convergence
// plots; paper Fig. 7(c)). trace[0] is the pre-mitigation fidelity.
// Per-iteration spans additionally carry the Hellinger distance to the
// ideal distribution.
func MitigateTrackedCtx(ctx context.Context, counts Counts, lambda float64, opts Options, ideal Counts) (Counts, []float64, error) {
	dist, err := bitstring.FromStringCounts(counts)
	if err != nil {
		return nil, nil, err
	}
	idealDist, err := bitstring.FromStringCounts(ideal)
	if err != nil {
		return nil, nil, err
	}
	out, trace, err := core.MitigateTrackedCtx(ctx, dist, lambda, opts.coreOptions(), idealDist)
	if err != nil {
		return nil, nil, err
	}
	return out.StringCounts(), trace, nil
}

// EstimateLambdaQASMCtx transpiles an OpenQASM 2.0 circuit onto a named
// catalog backend and evaluates the Eq. 2 λ model from the backend's
// calibration snapshot — strictly pre-induction. Backend names resolve
// exactly like SimulateCtx/SimulateExactCtx, including "ion-5". The
// parse and transpile spans parent under the span active in ctx.
func EstimateLambdaQASMCtx(ctx context.Context, qasmSource, backend string) (Lambda, error) {
	c, err := qasm.ParseCtx(ctx, qasmSource)
	if err != nil {
		return Lambda{}, err
	}
	b, err := backendByAnyName(backend)
	if err != nil {
		return Lambda{}, err
	}
	res, err := transpile.TranspileCtx(ctx, c, b, nil)
	if err != nil {
		return Lambda{}, err
	}
	lb, err := core.EstimateLambda(res, b)
	if err != nil {
		return Lambda{}, err
	}
	return Lambda{T1: lb.T1, T2: lb.T2, Gates: lb.Gates, Time: lb.Time}, nil
}

// BackendInfo describes one synthetic backend of the catalog.
type BackendInfo struct {
	Name         string
	Architecture string
	Qubits       int
	MeanT1       float64 // seconds
	MeanT2       float64
	MeanReadout  float64
}

// Backends lists the synthetic 16-machine superconducting catalog plus
// the trapped-ion backend.
func Backends() ([]BackendInfo, error) {
	all, err := device.Catalog()
	if err != nil {
		return nil, err
	}
	ion, err := device.IonBackend()
	if err != nil {
		return nil, err
	}
	all = append(all, ion)
	out := make([]BackendInfo, len(all))
	for i, b := range all {
		out[i] = BackendInfo{
			Name:         b.Name,
			Architecture: string(b.Architecture),
			Qubits:       b.N(),
			MeanT1:       b.Calibration.MeanT1(),
			MeanT2:       b.Calibration.MeanT2(),
			MeanReadout:  b.Calibration.MeanReadoutError(),
		}
	}
	return out, nil
}

// SimResult is the outcome of a synthetic induction.
type SimResult struct {
	// Raw is the noisy measurement distribution.
	Raw Counts
	// Ideal is the exact noiseless distribution.
	Ideal Counts
	// Lambda is the pre-induction Eq. 2 estimate for this transpilation.
	Lambda Lambda
	// TranspiledGates counts basis gates after routing and optimization.
	TranspiledGates int
	// Swaps counts SWAPs inserted by routing.
	Swaps int
}

// SimulateCtx parses an OpenQASM 2.0 circuit, transpiles it onto a named
// catalog backend, runs it for shots under the hardware-style noise model
// (calibrated gate errors, decoherence, readout, correlated Poisson
// bursts) and returns raw counts, the ideal distribution, and the λ
// estimate. seed makes the run reproducible: the shot loop fans across
// cores, and the counts depend on seed alone, at any GOMAXPROCS. The
// parse, transpile, ideal-run and noisy-induction spans all parent under
// the span active in ctx, giving one connected trace for the whole
// synthetic pipeline.
func SimulateCtx(ctx context.Context, qasmSource, backend string, shots int, seed uint64) (*SimResult, error) {
	c, err := qasm.ParseCtx(ctx, qasmSource)
	if err != nil {
		return nil, err
	}
	b, err := backendByAnyName(backend)
	if err != nil {
		return nil, err
	}
	exec, err := noise.NewExecutor(b, noise.DefaultModel())
	if err != nil {
		return nil, err
	}
	run, err := exec.ExecuteCtx(ctx, c, shots, mathx.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	lb, err := core.EstimateLambda(run.Transpiled, b)
	if err != nil {
		return nil, err
	}
	return &SimResult{
		Raw:             run.Counts.StringCounts(),
		Ideal:           run.Ideal.StringCounts(),
		Lambda:          Lambda{T1: lb.T1, T2: lb.T2, Gates: lb.Gates, Time: lb.Time},
		TranspiledGates: run.Transpiled.GatesAfter,
		Swaps:           run.Transpiled.SwapsAdded,
	}, nil
}

// SimulateExactCtx runs the circuit through the exact density-matrix
// engine (Kraus channels after every gate; O(4^n), registers ≤ 10
// qubits): the returned exact distribution has no sampling error, and
// sampled draws shots outcomes from it. Use it to validate results from
// the fast hardware-style model at small widths.
func SimulateExactCtx(ctx context.Context, qasmSource, backend string, shots int, seed uint64) (exact, sampled Counts, err error) {
	c, err := qasm.ParseCtx(ctx, qasmSource)
	if err != nil {
		return nil, nil, err
	}
	b, err := backendByAnyName(backend)
	if err != nil {
		return nil, nil, err
	}
	exec, err := noise.NewDensityExecutor(b)
	if err != nil {
		return nil, nil, err
	}
	var rng *mathx.RNG
	if shots > 0 {
		rng = mathx.NewRNG(seed)
	}
	ex, sm, err := exec.ExecuteExact(ctx, c, shots, rng)
	if err != nil {
		return nil, nil, err
	}
	exact = ex.StringCounts()
	if sm != nil {
		sampled = sm.StringCounts()
	}
	return exact, sampled, nil
}

func backendByAnyName(name string) (*device.Backend, error) {
	if name == "ion-5" {
		return device.IonBackend()
	}
	b, err := device.ByName(name)
	if err != nil {
		// The catalog error enumerates the superconducting machines only;
		// remind the caller the ion machine exists too.
		return nil, fmt.Errorf("%w (or \"ion-5\")", err)
	}
	return b, nil
}

// Fidelity computes the classical (Bhattacharyya) fidelity between two
// count maps over the same register.
func Fidelity(a, b Counts) (float64, error) {
	da, err := bitstring.FromStringCounts(a)
	if err != nil {
		return 0, err
	}
	db, err := bitstring.FromStringCounts(b)
	if err != nil {
		return 0, err
	}
	if da.Width() != db.Width() {
		return 0, fmt.Errorf("qbeep: register widths differ: %d vs %d", da.Width(), db.Width())
	}
	return bitstring.Fidelity(da, db), nil
}

// PST returns the Probability of Successful Trial: the probability mass
// on the correct bit-string.
func PST(counts Counts, correct string) (float64, error) {
	d, err := bitstring.FromStringCounts(counts)
	if err != nil {
		return 0, err
	}
	v, n, err := bitstring.Parse(correct)
	if err != nil {
		return 0, err
	}
	if n != d.Width() {
		return 0, fmt.Errorf("qbeep: correct string width %d vs counts width %d", n, d.Width())
	}
	return d.Prob(v), nil
}

// TranspileQASMCtx lowers an OpenQASM 2.0 circuit onto a named backend's
// basis and topology and returns the routed program as OpenQASM, plus the
// scheduled duration in seconds.
func TranspileQASMCtx(ctx context.Context, qasmSource, backend string) (string, float64, error) {
	c, err := qasm.ParseCtx(ctx, qasmSource)
	if err != nil {
		return "", 0, err
	}
	b, err := backendByAnyName(backend)
	if err != nil {
		return "", 0, err
	}
	res, err := transpile.TranspileCtx(ctx, c, b, nil)
	if err != nil {
		return "", 0, err
	}
	out, err := qasm.Write(res.Circuit)
	if err != nil {
		return "", 0, err
	}
	return out, res.Time, nil
}

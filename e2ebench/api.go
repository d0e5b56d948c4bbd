package main

import (
	"context"
	"fmt"
	"math"

	"qbeep"
)

// output is what one request hands back: the counts that were mitigated
// (marginalized onto the data qubits for circuit requests), the mitigated
// counts, and the λ used. fullIdeal is the simulator's noiseless
// distribution over the whole register; counts requests leave it nil.
type output struct {
	raw       qbeep.Counts
	mitigated qbeep.Counts
	lambda    float64
	fullIdeal qbeep.Counts
}

// runAPI serves one request through the public qbeep API only, as a user
// would: SimulateCtx → MarginalizeCounts → MitigateCtx for circuit
// requests, MitigateCtx alone for counts requests.
func runAPI(ctx context.Context, r *request, opts qbeep.Options) (output, error) {
	if !r.simulated() {
		mit, err := qbeep.MitigateCtx(ctx, r.Counts, r.Lambda, opts)
		return output{raw: r.Counts, mitigated: mit, lambda: r.Lambda}, err
	}
	sim, err := qbeep.SimulateCtx(ctx, r.QASM, r.Backend, r.Shots, r.ShotSeed)
	if err != nil {
		return output{}, err
	}
	raw, err := qbeep.MarginalizeCounts(sim.Raw, r.DataQubits)
	if err != nil {
		return output{}, err
	}
	lambda := sim.Lambda.Total()
	mit, err := qbeep.MitigateCtx(ctx, raw, lambda, opts)
	if err != nil {
		return output{}, err
	}
	return output{raw: raw, mitigated: mit, lambda: lambda, fullIdeal: sim.Ideal}, nil
}

// checkOutput verifies what mitigation promises: every count finite and
// non-negative, mass conserved, and mitigated support inside the raw
// support (mitigation moves mass between observed outcomes only). For
// circuit requests the raw counts must also total the shots.
func checkOutput(r *request, out output) error {
	rawTotal, err := total(out.raw)
	if err != nil {
		return fmt.Errorf("raw counts: %w", err)
	}
	mitTotal, err := total(out.mitigated)
	if err != nil {
		return fmt.Errorf("mitigated counts: %w", err)
	}
	if r.simulated() && rawTotal != float64(r.Shots) {
		return fmt.Errorf("raw counts total %v, want %d shots", rawTotal, r.Shots)
	}
	if math.Abs(mitTotal-rawTotal) > 1e-9*rawTotal {
		return fmt.Errorf("mass not conserved: raw %v, mitigated %v", rawTotal, mitTotal)
	}
	for k := range out.mitigated {
		if _, ok := out.raw[k]; !ok {
			return fmt.Errorf("mitigated outcome %q not in raw support", k)
		}
	}
	return nil
}

func total(c qbeep.Counts) (float64, error) {
	if len(c) == 0 {
		return 0, fmt.Errorf("empty")
	}
	var s float64
	for k, v := range c {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return 0, fmt.Errorf("outcome %q has count %v", k, v)
		}
		s += v
	}
	return s, nil
}

// fidelityGain scores a request: F(mitigated, ideal) − F(raw, ideal),
// Bhattacharyya fidelity through the public API. The ideal is the
// noiseless run marginalized like the raw counts, or the counts request's
// own centre mixture.
func fidelityGain(r *request, out output) (float64, error) {
	ideal := r.Ideal
	if r.simulated() {
		var err error
		if ideal, err = qbeep.MarginalizeCounts(out.fullIdeal, r.DataQubits); err != nil {
			return 0, err
		}
	}
	fm, err := qbeep.Fidelity(out.mitigated, ideal)
	if err != nil {
		return 0, err
	}
	fr, err := qbeep.Fidelity(out.raw, ideal)
	if err != nil {
		return 0, err
	}
	return fm - fr, nil
}

// sameBits reports the first difference between two outputs, comparing
// every count and λ bit for bit.
func sameBits(a, b output) error {
	if math.Float64bits(a.lambda) != math.Float64bits(b.lambda) {
		return fmt.Errorf("lambda %v vs %v", a.lambda, b.lambda)
	}
	if err := sameCounts(a.raw, b.raw); err != nil {
		return fmt.Errorf("raw counts: %w", err)
	}
	if err := sameCounts(a.mitigated, b.mitigated); err != nil {
		return fmt.Errorf("mitigated counts: %w", err)
	}
	return nil
}

func sameCounts(a, b qbeep.Counts) error {
	if len(a) != len(b) {
		return fmt.Errorf("support %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Errorf("outcome %q: %v vs %v", k, v, w)
		}
	}
	return nil
}

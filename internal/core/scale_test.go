package core

// Tests for the million-vertex scaling features: the wide-register
// sphere path (presence bitmap + binary-search hit resolution past the
// LUT width) and the Options.ConvergeTol adaptive iteration loop. The
// engine's determinism contract — bit-identical output for every
// strategy and worker count — extends to both, pinned here against the
// brute oracle and across the worker matrix.

import (
	"context"
	"fmt"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/obs"
	"qbeep/internal/testutil"
)

// TestScanMatchesBruteOracleWide drives the wide-register sphere path
// (sphereLUTMaxWidth < n <= sphereMaxWidth, where confirmed bitmap hits
// resolve their vertex index by binary search instead of a direct
// table) against the brute oracle and the pair scan, across the
// worker matrix.
func TestScanMatchesBruteOracleWide(t *testing.T) {
	cases := []struct {
		n       int
		support int
		lambda  float64
		seed    uint64
	}{
		{22, 500, 1.2, 201},
		{26, 300, 0.8, 202},
	}
	workers := testutil.WorkerMatrix(t)
	for _, c := range cases {
		dists := map[string]*bitstring.Dist{
			"clustered": poissonCounts(c.n, bitstring.BitString(0x2b5a7)&(1<<uint(c.n)-1), c.lambda, c.support*3, c.seed),
			"uniform":   uniformDist(c.n, c.support, c.seed+100),
		}
		for kind, raw := range dists {
			oracle, err := buildStateGraphBrute(raw, PoissonEdges{Lambda: c.lambda}, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			var ref *StateGraph
			for _, strat := range []scanStrategy{scanAuto, scanPairs, scanSphere} {
				for _, w := range workers {
					label := fmt.Sprintf("n=%d %s strat=%s workers=%d", c.n, kind, strat, w)
					g, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: c.lambda}, 0.05, w, strat)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameEdges(t, label+" vs oracle", oracle, g)
					if ref == nil {
						ref = g
					} else {
						sameEdges(t, label+" vs ref", ref, g)
					}
				}
			}
		}
	}
}

// TestConvergeTolZeroBitwise pins the contract that a zero tolerance is
// the fixed schedule: all Iterations rounds run and the output matches
// the default configuration bitwise.
func TestConvergeTolZeroBitwise(t *testing.T) {
	raw := poissonCounts(10, bitstring.BitString(0x2b5), 1.2, 3000, 61)
	base, err := MitigateCtx(context.Background(), raw, 1.2, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := NewOptions()
	opts.ConvergeTol = 0
	iters := 0
	watchIterations(t, func(obs.SpanEvent) { iters++ })
	got, err := MitigateCtx(context.Background(), raw, 1.2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if iters != opts.Iterations {
		t.Fatalf("tolerance 0 ran %d iterations, want the fixed %d", iters, opts.Iterations)
	}
	sameDist(t, "converge-tol=0", base, got)
}

// TestConvergeTolEarlyExit checks the adaptive loop: a loose tolerance
// stops before the fixed schedule, the triggering iteration's step
// delta is at or below the tolerance, and the early-exited output is
// deterministic across the worker matrix.
func TestConvergeTolEarlyExit(t *testing.T) {
	raw := poissonCounts(10, bitstring.BitString(0x1a6), 1.2, 3000, 62)
	opts := NewOptions()
	opts.ConvergeTol = 0.01
	var steps []float64 // per-iteration step Hellinger, in round order
	watchIterations(t, func(e obs.SpanEvent) {
		steps = append(steps, spanAttr(e, "step_hellinger").(float64))
	})
	ref, err := MitigateCtx(context.Background(), raw, 1.2, opts)
	if err != nil {
		t.Fatal(err)
	}
	obs.SetSpanSink(nil)
	if len(steps) == 0 || len(steps) >= opts.Iterations {
		t.Fatalf("expected an early exit, ran %d of %d iterations", len(steps), opts.Iterations)
	}
	if last := steps[len(steps)-1]; last > opts.ConvergeTol {
		t.Fatalf("exited with step Hellinger %v above tolerance %v", last, opts.ConvergeTol)
	}
	for i, h := range steps[:len(steps)-1] {
		if h <= opts.ConvergeTol {
			t.Fatalf("iteration %d already met the tolerance (%v) but the loop continued", i+1, h)
		}
	}
	for _, w := range testutil.WorkerMatrix(t) {
		out, _, err := mitigateCtx(context.Background(), raw, 1.2, opts, nil, w, scanAuto)
		if err != nil {
			t.Fatal(err)
		}
		sameDist(t, fmt.Sprintf("adaptive workers=%d", w), ref, out)
	}
}

// TestStepHellingerMatchesSnapshot validates the in-loop Hellinger
// accumulation against the definitionally-correct two-snapshot form.
func TestStepHellingerMatchesSnapshot(t *testing.T) {
	raw := poissonCounts(8, 0b10110100, 1.5, 3000, 71)
	g, err := BuildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: 1.5}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		before := g.Dist()
		st := g.Step(1 / float64(i))
		want := bitstring.Hellinger(before, g.Dist())
		if !approx(st.Hellinger, want, 1e-9) {
			t.Fatalf("iteration %d: StepStats.Hellinger %v vs snapshot %v", i, st.Hellinger, want)
		}
	}
}

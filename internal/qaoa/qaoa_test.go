package qaoa

import (
	"context"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
	"qbeep/internal/statevector"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func triangle() *Graph {
	return &Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}}
}

func TestGraphValidate(t *testing.T) {
	if err := triangle().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Graph{N: 2, Edges: [][2]int{{0, 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("self-loop should error")
	}
	bad = &Graph{N: 2, Edges: [][2]int{{0, 5}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range edge should error")
	}
	bad = &Graph{N: 2, Edges: [][2]int{{0, 1}}, Weights: []float64{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Error("weight mismatch should error")
	}
	if err := (&Graph{N: 0}).Validate(); err == nil {
		t.Error("empty graph should error")
	}
}

func TestCostTriangle(t *testing.T) {
	g := triangle()
	// All same side: every edge contributes +1.
	if got := g.Cost(0b000); got != 3 {
		t.Errorf("Cost(000) = %v want 3", got)
	}
	// One vertex across: edges (0,1),(0,2) cut (-1 each), (1,2) uncut (+1).
	if got := g.Cost(0b001); got != -1 {
		t.Errorf("Cost(001) = %v want -1", got)
	}
}

func TestMinCostTriangle(t *testing.T) {
	g := triangle()
	cmin, arg, err := g.MinCost()
	if err != nil {
		t.Fatal(err)
	}
	if cmin != -1 {
		t.Errorf("C_min = %v want -1 (triangle max cut = 2)", cmin)
	}
	if g.Cost(arg) != cmin {
		t.Error("argmin inconsistent")
	}
}

func TestMinCostBipartiteReachesFullCut(t *testing.T) {
	// A 4-cycle is bipartite: all 4 edges cut, C_min = -4.
	g := &Graph{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}}
	cmin, _, err := g.MinCost()
	if err != nil {
		t.Fatal(err)
	}
	if cmin != -4 {
		t.Errorf("C_min = %v want -4", cmin)
	}
}

func TestWeightedCost(t *testing.T) {
	g := &Graph{N: 2, Edges: [][2]int{{0, 1}}, Weights: []float64{2.5}}
	if got := g.Cost(0b01); got != -2.5 {
		t.Errorf("weighted cost %v", got)
	}
}

func TestExpectedCostAndRatio(t *testing.T) {
	g := triangle()
	d := bitstring.NewDist(3)
	d.Add(0b001, 1) // cost -1 (optimal)
	d.Add(0b000, 1) // cost +3
	e, err := g.ExpectedCost(d)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(e, 1, 1e-12) {
		t.Errorf("E[C] = %v want 1", e)
	}
	cr, err := g.CostRatio(d)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(cr, -1, 1e-12) {
		t.Errorf("CR = %v want -1", cr)
	}
	// Optimal distribution has CR = 1.
	opt := bitstring.NewDist(3)
	opt.Add(0b001, 1)
	cr, _ = g.CostRatio(opt)
	if !approx(cr, 1, 1e-12) {
		t.Errorf("optimal CR = %v want 1", cr)
	}
	if _, err := g.ExpectedCost(bitstring.NewDist(4)); err == nil {
		t.Error("width mismatch should error")
	}
	if _, err := g.ExpectedCost(bitstring.NewDist(3)); err == nil {
		t.Error("empty dist should error")
	}
}

func TestRandom3Regular(t *testing.T) {
	rng := mathx.NewRNG(8)
	for _, n := range []int{4, 8, 12} {
		g, err := Random3Regular(n, rng)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		deg := make([]int, n)
		for _, e := range g.Edges {
			deg[e[0]]++
			deg[e[1]]++
		}
		for v, d := range deg {
			if d != 3 {
				t.Errorf("n=%d vertex %d degree %d", n, v, d)
			}
		}
	}
	if _, err := Random3Regular(5, rng); err == nil {
		t.Error("odd n should error")
	}
	if _, err := Random3Regular(2, rng); err == nil {
		t.Error("tiny n should error")
	}
}

func TestRandomErdosRenyi(t *testing.T) {
	rng := mathx.NewRNG(9)
	g, err := RandomErdosRenyi(8, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) == 0 {
		t.Error("should have at least one edge")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := RandomErdosRenyi(1, 0.5, rng); err == nil {
		t.Error("n=1 should error")
	}
	if _, err := RandomErdosRenyi(5, 0, rng); err == nil {
		t.Error("p=0 should error")
	}
}

func TestCircuitStructure(t *testing.T) {
	g := triangle()
	c, err := Circuit(g, []float64{0.4}, []float64{0.3})
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 3 {
		t.Errorf("width %d", c.N)
	}
	// p=1: 2 CX per edge.
	if got := c.TwoQubitCount(); got != 6 {
		t.Errorf("CX count %d want 6", got)
	}
	if _, err := Circuit(g, []float64{0.1}, nil); err == nil {
		t.Error("mismatched angles should error")
	}
	if _, err := Circuit(g, nil, nil); err == nil {
		t.Error("empty angles should error")
	}
}

func TestQAOABeatsRandomGuessing(t *testing.T) {
	// The noiseless QAOA distribution should have expected cost below 0
	// (random guessing gives E[C] = 0).
	rng := mathx.NewRNG(10)
	g, err := Random3Regular(8, rng)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := statevector.IdealDistCtx(context.Background(), inst.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := g.ExpectedCost(ideal)
	if err != nil {
		t.Fatal(err)
	}
	if cost >= 0 {
		t.Errorf("QAOA expected cost %v should beat random (0)", cost)
	}
	cr, err := g.CostRatio(ideal)
	if err != nil {
		t.Fatal(err)
	}
	if cr <= 0 || cr > 1 {
		t.Errorf("CR %v outside (0, 1]", cr)
	}
}

func TestNewInstanceValidation(t *testing.T) {
	g := triangle()
	if _, err := NewInstance(g, 0); err == nil {
		t.Error("zero depth should error")
	}
	// Edgeless graph: C_min = 0 → degenerate.
	if _, err := NewInstance(&Graph{N: 3}, 1); err == nil {
		t.Error("degenerate instance should error")
	}
}

func TestDataset(t *testing.T) {
	rng := mathx.NewRNG(12)
	insts, err := Dataset(context.Background(), 6, 6, 10, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 6 {
		t.Fatalf("dataset size %d", len(insts))
	}
	for i, inst := range insts {
		if inst.CMin >= 0 {
			t.Errorf("instance %d: C_min %v should be negative", i, inst.CMin)
		}
		if inst.Graph.N < 6 || inst.Graph.N > 10 {
			t.Errorf("instance %d: size %d outside [6,10]", i, inst.Graph.N)
		}
		if inst.P < 1 || inst.P > 2 {
			t.Errorf("instance %d: depth %d", i, inst.P)
		}
	}
	if _, err := Dataset(context.Background(), 0, 6, 10, 2, rng); err == nil {
		t.Error("zero count should error")
	}
}

func TestDatasetDeterministic(t *testing.T) {
	a, err := Dataset(context.Background(), 3, 6, 8, 1, mathx.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Dataset(context.Background(), 3, 6, 8, 1, mathx.NewRNG(77))
	for i := range a {
		if a[i].Graph.N != b[i].Graph.N || len(a[i].Graph.Edges) != len(b[i].Graph.Edges) {
			t.Fatal("dataset not deterministic")
		}
	}
}

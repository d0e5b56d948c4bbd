package qaoa

import (
	"context"
	"fmt"
	"math"

	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
	"qbeep/internal/par"
	"qbeep/internal/statevector"
)

// Instance is one QAOA problem ready for induction: graph, angles and the
// built circuit, plus the exact C_min.
type Instance struct {
	Graph   *Graph
	P       int
	Gamma   []float64
	Beta    []float64
	Circuit *circuit.Circuit
	CMin    float64
}

// angle grids the generator searches for each instance — a coarse
// stand-in for the optimization loop that produced the Sycamore dataset's
// angles. Both signs of γ are needed: the optimum's sign depends on the
// cost convention and graph parity.
var (
	gammaGrid = []float64{-0.7, -0.5, -0.35, -0.2, 0.2, 0.35, 0.5, 0.7}
	betaGrid  = []float64{0.15, 0.3, 0.45, 0.6}
)

// NewInstance builds a QAOA instance on the graph with depth p, choosing
// uniform per-layer angles by brute-force grid search on the noiseless
// simulator (lowest expected cost wins). Registers are limited by the
// state-vector simulator.
func NewInstance(g *Graph, p int) (*Instance, error) {
	return newInstance(context.Background(), g, p) //qbeep:allow-ctx ctx-less signature is pinned by the e2ebench module's QAOA corpus builder
}

// newInstance is NewInstance with the grid search's ideal runs parented
// under the span active in ctx.
func newInstance(ctx context.Context, g *Graph, p int) (*Instance, error) {
	if p <= 0 {
		return nil, fmt.Errorf("qaoa: depth %d must be positive", p)
	}
	if g.N > statevector.MaxQubits {
		return nil, fmt.Errorf("qaoa: %d vertices exceeds simulator limit", g.N)
	}
	cmin, _, err := g.MinCost()
	if err != nil {
		return nil, err
	}
	if cmin >= 0 {
		return nil, fmt.Errorf("qaoa: degenerate instance with C_min %v", cmin)
	}
	var best *Instance
	bestCost := math.Inf(1)
	for _, gm := range gammaGrid {
		for _, bt := range betaGrid {
			gamma := make([]float64, p)
			beta := make([]float64, p)
			for i := 0; i < p; i++ {
				gamma[i] = gm
				beta[i] = bt
			}
			c, err := Circuit(g, gamma, beta)
			if err != nil {
				return nil, err
			}
			ideal, err := statevector.IdealDistCtx(ctx, c)
			if err != nil {
				return nil, err
			}
			cost, err := g.ExpectedCost(ideal)
			if err != nil {
				return nil, err
			}
			if cost < bestCost {
				bestCost = cost
				best = &Instance{Graph: g, P: p, Gamma: gamma, Beta: beta, Circuit: c, CMin: cmin}
			}
		}
	}
	if best == nil || bestCost >= 0 {
		return nil, fmt.Errorf("qaoa: grid search found no improving angles (best %v)", bestCost)
	}
	return best, nil
}

// Dataset generates count QAOA instances mixing 3-regular and Erdős–Rényi
// graphs with sizes in [minN, maxN] and depths 1..maxP — the synthetic
// stand-in for the 340-solution Sycamore corpus. The grid searches fan
// out under the span active in ctx.
func Dataset(ctx context.Context, count, minN, maxN, maxP int, rng *mathx.RNG) ([]*Instance, error) {
	if count <= 0 || minN < 4 || maxN < minN || maxP <= 0 {
		return nil, fmt.Errorf("qaoa: bad dataset spec (%d, %d, %d, %d)", count, minN, maxN, maxP)
	}
	// Phase 1 (sequential): sample graphs and depths so the corpus is
	// deterministic; phase 2 (parallel): the grid searches, which dominate
	// the cost and are RNG-free.
	type spec struct {
		g *Graph
		p int
	}
	specs := make([]spec, 0, count)
	for len(specs) < count {
		n := minN + rng.Intn(maxN-minN+1)
		var g *Graph
		var err error
		if rng.Float64() < 0.5 {
			if n%2 == 1 {
				n++
			}
			if n > maxN {
				n = maxN - maxN%2
			}
			g, err = Random3Regular(n, rng)
		} else {
			g, err = RandomErdosRenyi(n, 0.4, rng)
		}
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec{g: g, p: 1 + rng.Intn(maxP)})
	}
	out := make([]*Instance, count)
	err := par.ForEachCtx(ctx, count, 0, func(i int) error {
		inst, err := newInstance(ctx, specs[i].g, specs[i].p)
		if err != nil {
			return err
		}
		out[i] = inst
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

package transpile

import (
	"context"
	"fmt"
	"sort"

	"qbeep/internal/circuit"
	"qbeep/internal/device"
)

// Layout maps logical qubits to physical qubits. Logical qubit i runs on
// physical qubit Layout[i].
type Layout []int

// validate checks the layout is an injection into [0, nPhys).
func (l Layout) validate(nPhys int) error {
	seen := make(map[int]bool, len(l))
	for i, p := range l {
		if p < 0 || p >= nPhys {
			return fmt.Errorf("transpile: logical %d mapped to invalid physical %d", i, p)
		}
		if seen[p] {
			return fmt.Errorf("transpile: physical qubit %d used twice", p)
		}
		seen[p] = true
	}
	return nil
}

// TrivialLayout maps logical i to physical i.
func TrivialLayout(n int) Layout {
	l := make(Layout, n)
	for i := range l {
		l[i] = i
	}
	return l
}

// GreedyLayout picks physical qubits for the circuit by interaction degree:
// the most-entangling logical qubit goes to the best-connected,
// lowest-error physical region. It seeds with the highest-degree logical
// qubit on the physical qubit with the most couplings, then grows the
// mapping along interaction edges, preferring neighbors with low 2-qubit
// error. This is a light-weight stand-in for VF2/SABRE-style layout.
func GreedyLayout(c *circuit.Circuit, b *device.Backend) (Layout, error) {
	n := c.N
	if n > b.N() {
		return nil, fmt.Errorf("transpile: circuit needs %d qubits, backend %s has %d", n, b.Name, b.N())
	}
	// Logical interaction multiplicities.
	inter := make(map[device.Edge]int)
	degree := make([]int, n)
	for _, g := range c.Gates {
		if !g.Kind.IsUnitary() || len(g.Qubits) < 2 {
			continue
		}
		for i := 0; i < len(g.Qubits); i++ {
			for j := i + 1; j < len(g.Qubits); j++ {
				inter[device.NormEdge(g.Qubits[i], g.Qubits[j])]++
				degree[g.Qubits[i]]++
				degree[g.Qubits[j]]++
			}
		}
	}
	// Logical qubits ordered by decreasing interaction degree (stable tie
	// break on index).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return degree[order[i]] > degree[order[j]] })

	layout := make(Layout, n)
	for i := range layout {
		layout[i] = -1
	}
	usedPhys := make([]bool, b.N())

	// Physical seed: the qubit with the most couplings (ties toward lower
	// index).
	seedPhys, bestDeg := 0, -1
	for p := 0; p < b.N(); p++ {
		if d := len(b.Topology.Neighbors(p)); d > bestDeg {
			seedPhys, bestDeg = p, d
		}
	}

	edgeErr := func(a, bq int) float64 {
		if g, ok := b.Calibration.Gate2Q(a, bq); ok {
			return g.Error
		}
		return 1
	}

	place := func(logical, phys int) {
		layout[logical] = phys
		usedPhys[phys] = true
	}

	// Sorted edge view keeps the greedy scan deterministic (map iteration
	// order is randomized).
	interEdges := make([]device.Edge, 0, len(inter))
	for e := range inter {
		interEdges = append(interEdges, e)
	}
	sort.Slice(interEdges, func(i, j int) bool {
		if interEdges[i].A != interEdges[j].A {
			return interEdges[i].A < interEdges[j].A
		}
		return interEdges[i].B < interEdges[j].B
	})

	for _, lq := range order {
		if layout[lq] != -1 {
			continue
		}
		// Prefer a free physical neighbor of an already-placed interaction
		// partner, minimizing the coupling error.
		bestPhys, bestScore := -1, 2.0
		for _, e := range interEdges {
			w := inter[e]
			var partner int
			switch lq {
			case e.A:
				partner = e.B
			case e.B:
				partner = e.A
			default:
				continue
			}
			if layout[partner] == -1 {
				continue
			}
			for _, nb := range b.Topology.Neighbors(layout[partner]) {
				if usedPhys[nb] {
					continue
				}
				score := edgeErr(layout[partner], nb) / float64(w)
				//qbeep:allow-floatcmp exact tie-break: equal scores fall through to the qubit-index order
				if score < bestScore || (score == bestScore && nb < bestPhys) {
					bestPhys, bestScore = nb, score
				}
			}
		}
		if bestPhys == -1 {
			// No placed partner: take the seed or the first free qubit
			// nearest the seed.
			if !usedPhys[seedPhys] {
				bestPhys = seedPhys
			} else {
				bestDist := 1 << 30
				for p := 0; p < b.N(); p++ {
					if usedPhys[p] {
						continue
					}
					d, err := b.Topology.Distance(seedPhys, p)
					if err != nil {
						continue
					}
					if d < bestDist {
						bestPhys, bestDist = p, d
					}
				}
				if bestPhys == -1 {
					return nil, fmt.Errorf("transpile: no free physical qubit for logical %d", lq)
				}
			}
		}
		place(lq, bestPhys)
	}
	if err := layout.validate(b.N()); err != nil {
		return nil, err
	}
	return layout, nil
}

// routeCtxChunk is how many gates Route routes between ctx checks, so a
// deadline stops a long circuit mid-route.
const routeCtxChunk = 256

// Route rewrites a basis circuit onto the backend topology: logical qubits
// are placed by layout, and every CX between uncoupled physical qubits is
// preceded by SWAP chains (each SWAP lowered to 3 CX) moving the control
// along the shortest path to the target's neighborhood. The returned
// circuit acts on the backend's physical register; the returned final
// layout maps logical to physical at circuit end (measurement remapping
// uses it). A done ctx stops the routing at the next check, one every
// routeCtxChunk gates, and returns ctx's error.
func Route(ctx context.Context, c *circuit.Circuit, b *device.Backend, layout Layout) (*circuit.Circuit, Layout, error) {
	if err := c.Err(); err != nil {
		return nil, nil, err
	}
	if !IsBasis(c) {
		return nil, nil, fmt.Errorf("transpile: Route requires a basis circuit; run Decompose first")
	}
	if len(layout) != c.N {
		return nil, nil, fmt.Errorf("transpile: layout covers %d logical qubits, circuit has %d", len(layout), c.N)
	}
	if err := layout.validate(b.N()); err != nil {
		return nil, nil, err
	}
	cur := append(Layout(nil), layout...)
	// phys2log is the inverse map for the physical qubits in use.
	phys2log := make(map[int]int, len(cur))
	for l, p := range cur {
		phys2log[p] = l
	}
	out := circuit.New(c.Name, b.N())

	swapPhys := func(pa, pb int) {
		// Emit SWAP as 3 CX and update the maps. Either endpoint may be
		// unoccupied (carrying no logical qubit).
		out.Append(cx(pa, pb)).Append(cx(pb, pa)).Append(cx(pa, pb))
		la, aOK := phys2log[pa]
		lb, bOK := phys2log[pb]
		if aOK {
			cur[la] = pb
			phys2log[pb] = la
		} else {
			delete(phys2log, pb)
		}
		if bOK {
			cur[lb] = pa
			phys2log[pa] = lb
		} else {
			delete(phys2log, pa)
		}
	}

	for i, g := range c.Gates {
		if i%routeCtxChunk == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		switch g.Kind {
		case circuit.Barrier:
			// Re-emit over the mapped qubits.
			qs := make([]int, len(g.Qubits))
			for i, q := range g.Qubits {
				qs[i] = cur[q]
			}
			out.Append(circuit.Gate{Kind: circuit.Barrier, Qubits: qs})
		case circuit.CX:
			pc, pt := cur[g.Qubits[0]], cur[g.Qubits[1]]
			if !b.Topology.Connected(pc, pt) {
				path, err := b.Topology.ShortestPath(pc, pt)
				if err != nil {
					return nil, nil, fmt.Errorf("transpile: routing %s: %w", g, err)
				}
				// Swap the control along the path until adjacent to target.
				for i := 0; i+2 < len(path); i++ {
					swapPhys(path[i], path[i+1])
				}
				pc = cur[g.Qubits[0]]
				pt = cur[g.Qubits[1]]
				if !b.Topology.Connected(pc, pt) {
					return nil, nil, fmt.Errorf("transpile: internal routing failure for %s", g)
				}
			}
			out.Append(cx(pc, pt))
		default:
			qs := make([]int, len(g.Qubits))
			for i, q := range g.Qubits {
				qs[i] = cur[q]
			}
			out.Append(circuit.Gate{Kind: g.Kind, Qubits: qs, Params: append([]float64(nil), g.Params...)})
		}
	}
	res, err := out.Finalize()
	if err != nil {
		return nil, nil, err
	}
	return res, cur, nil
}

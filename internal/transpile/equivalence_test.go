package transpile

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"qbeep/internal/algorithms"
	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/statevector"
)

// The semantic oracle for the whole transpiler (decompose, layout,
// route, optimize), after qibo's assert_circuit_equivalence: prepare one
// random state, run the logical circuit on it, run the transpiled
// circuit on the same state placed by the initial layout, and compare
// the final states with the logical qubits read through the final
// layout. Unoccupied physical qubits start in |0⟩ and must end there.

// equivalenceTol is the overlap deficit allowed between the two final
// states: both runs round each amplitude a few hundred times, far below
// it, while a misplaced or wrong gate moves the overlap by O(1).
const equivalenceTol = 1e-9

// statePrep returns a random state preparation on n qubits: a U3 layer,
// a CX ladder and a second U3 layer, which leaves every amplitude
// generically nonzero and the qubits entangled, so a permuted or
// dephased qubit cannot go unnoticed.
func statePrep(n int, rng *mathx.RNG) []circuit.Gate {
	var gs []circuit.Gate
	u3 := func(q int) {
		gs = append(gs, circuit.Gate{Kind: circuit.U3, Qubits: []int{q},
			Params: []float64{math.Pi * rng.Float64(), 2 * math.Pi * rng.Float64(), 2 * math.Pi * rng.Float64()}})
	}
	for q := 0; q < n; q++ {
		u3(q)
	}
	for q := 0; q+1 < n; q++ {
		gs = append(gs, circuit.Gate{Kind: circuit.CX, Qubits: []int{q, q + 1}})
	}
	for q := 0; q < n; q++ {
		u3(q)
	}
	return gs
}

// runMapped runs gates on a width-n register from |0…0⟩, with every
// qubit q renamed to m(q).
func runMapped(tb testing.TB, n int, m func(int) int, gates ...[]circuit.Gate) *statevector.State {
	tb.Helper()
	c := circuit.New("equivalence", n)
	for _, gs := range gates {
		for _, g := range gs {
			qs := make([]int, len(g.Qubits))
			for i, q := range g.Qubits {
				qs[i] = m(q)
			}
			c.Append(circuit.Gate{Kind: g.Kind, Qubits: qs, Params: g.Params})
		}
	}
	s, err := statevector.RunCtx(context.Background(), c)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// compaction numbers the physical qubits res touches — its layouts'
// images and its gates' operands — in first-touch order.
func compaction(res *Result) map[int]int {
	compact := map[int]int{}
	touch := func(p int) {
		if _, ok := compact[p]; !ok {
			compact[p] = len(compact)
		}
	}
	for _, p := range res.Initial {
		touch(p)
	}
	for _, p := range res.Final {
		touch(p)
	}
	for _, g := range res.Circuit.Gates {
		for _, p := range g.Qubits {
			touch(p)
		}
	}
	return compact
}

// assertEquivalent checks that res implements c: the overlap between
// c's final state and res's, modulo the final layout and global phase,
// is 1 within equivalenceTol. The transpiled circuit runs compacted to
// the physical qubits it touches, so any backend fits the simulator.
func assertEquivalent(tb testing.TB, label string, c *circuit.Circuit, res *Result, seed uint64) {
	tb.Helper()
	compact := compaction(res)
	k := len(compact)
	if k > statevector.MaxQubits {
		tb.Fatalf("%s: transpiled circuit touches %d physical qubits, over the simulator's %d", label, k, statevector.MaxQubits)
	}
	if len(res.Initial) != c.N || len(res.Final) != c.N {
		tb.Fatalf("%s: layouts cover %d and %d qubits, circuit has %d", label, len(res.Initial), len(res.Final), c.N)
	}
	prep := statePrep(c.N, mathx.NewRNG(seed))
	logical := runMapped(tb, c.N, func(q int) int { return q }, prep, c.Gates)
	// The prep runs first on the physical side too, placed by Initial.
	physical := runMapped(tb, k, func(p int) int { return compact[p] },
		mapGates(prep, func(q int) int { return res.Initial[q] }), res.Circuit.Gates)
	var overlap complex128
	for l := 0; l < 1<<uint(c.N); l++ {
		var x bitstring.BitString
		for i, p := range res.Final {
			if l>>uint(i)&1 == 1 {
				x |= 1 << uint(compact[p])
			}
		}
		overlap += cmplx.Conj(logical.Amplitude(bitstring.BitString(l))) * physical.Amplitude(x)
	}
	if f := real(overlap)*real(overlap) + imag(overlap)*imag(overlap); f < 1-equivalenceTol {
		tb.Fatalf("%s: |⟨logical|transpiled⟩|² = %.12f (initial %v, final %v)\n%s", label, f, res.Initial, res.Final, res.Circuit)
	}
}

// mapGates renames every gate's qubits through m.
func mapGates(gs []circuit.Gate, m func(int) int) []circuit.Gate {
	out := make([]circuit.Gate, len(gs))
	for i, g := range gs {
		qs := make([]int, len(g.Qubits))
		for j, q := range g.Qubits {
			qs[j] = m(q)
		}
		out[i] = circuit.Gate{Kind: g.Kind, Qubits: qs, Params: g.Params}
	}
	return out
}

// TestTranspileEquivalence runs the oracle on every catalog backend ×
// every suite circuit, through TranspileCtx's greedy layout and through
// SearchLayout's random placements.
func TestTranspileEquivalence(t *testing.T) {
	backends, err := device.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for bi, b := range backends {
		for ci, e := range algorithms.Suite() {
			w, err := e.Build()
			if err != nil {
				t.Fatal(err)
			}
			seed := uint64(100*bi + ci)
			res, err := TranspileCtx(ctx, w.Circuit, b, nil)
			if err != nil {
				t.Fatalf("%s on %s: %v", e.Name, b.Name, err)
			}
			assertEquivalent(t, e.Name+" on "+b.Name+" (greedy)", w.Circuit, res, seed)
			res, err = SearchLayout(ctx, w.Circuit, b, 4, seed)
			if err != nil {
				t.Fatalf("%s on %s: %v", e.Name, b.Name, err)
			}
			assertEquivalent(t, e.Name+" on "+b.Name+" (search)", w.Circuit, res, seed)
		}
	}
}

// randomCircuit builds a circuit of width n with depth gates drawn from
// every unitary kind, plus a final measurement layer.
func randomCircuit(n, depth int, rng *mathx.RNG) *circuit.Circuit {
	c := circuit.New("fuzz", n)
	angle := func() float64 { return 2*math.Pi*rng.Float64() - math.Pi }
	for i := 0; i < depth; i++ {
		qs := rng.Perm(n)
		switch k := circuit.Kind(rng.Intn(int(circuit.CSWAP) + 1)); {
		case k.Arity() > n:
			c.CX(qs[0], qs[1])
		default:
			params := make([]float64, k.ParamCount())
			for j := range params {
				params[j] = angle()
			}
			c.Append(circuit.Gate{Kind: k, Qubits: qs[:k.Arity()], Params: params})
		}
	}
	return c.MeasureAll()
}

// localLayout places n logical qubits at random among the 2n physical
// qubits nearest a random one (breadth first), so the routed circuit
// stays small enough to simulate on any backend, as a whole-chip random
// placement would not.
func localLayout(b *device.Backend, n int, rng *mathx.RNG) Layout {
	start := rng.Intn(b.N())
	near, seen := []int{start}, map[int]bool{start: true}
	for i := 0; i < len(near) && len(near) < 2*n; i++ {
		for _, p := range b.Topology.Neighbors(near[i]) {
			if !seen[p] {
				seen[p] = true
				near = append(near, p)
			}
		}
	}
	layout := make(Layout, n)
	for i, j := range rng.Perm(len(near))[:n] {
		layout[i] = near[j]
	}
	return layout
}

// FuzzTranspileEquivalence runs the oracle on random circuits of 2–5
// qubits over every unitary kind, on a catalog backend, through the
// greedy layout, a random local layout or SearchLayout.
func FuzzTranspileEquivalence(f *testing.F) {
	backends, err := device.Catalog()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(1), uint8(0), uint8(3), uint8(20), uint8(0))
	f.Add(uint64(2), uint8(5), uint8(5), uint8(60), uint8(1))
	f.Add(uint64(3), uint8(11), uint8(4), uint8(40), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, backend, width, depth, mode uint8) {
		b := backends[int(backend)%len(backends)]
		n := 2 + int(width)%4
		if n > b.N() {
			n = b.N()
		}
		rng := mathx.NewRNG(seed)
		c := randomCircuit(n, 1+int(depth)%80, rng)
		ctx := context.Background()
		var res *Result
		var err error
		switch mode % 3 {
		case 0:
			res, err = TranspileCtx(ctx, c, b, nil)
		case 1:
			res, err = TranspileCtx(ctx, c, b, localLayout(b, n, rng))
		default:
			res, err = SearchLayout(ctx, c, b, 2, seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Routing moves each control towards its target and leaves it
		// there, so a long random circuit can drift across a large chip;
		// past 16 touched qubits the two state vectors outgrow a few MiB.
		if k := len(compaction(res)); k > 16 {
			t.Skipf("%s: routed circuit touches %d physical qubits", b.Name, k)
		}
		assertEquivalent(t, b.Name, c, res, seed)
	})
}

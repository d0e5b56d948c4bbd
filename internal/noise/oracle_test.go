package noise

import (
	"context"
	"fmt"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/statevector"
	"qbeep/internal/transpile"
)

// The exact oracle for the failure-event model. Given the per-shot drift
// D, the Executor's shot is a classical Markov chain over bit-strings,
// and every step of it has a closed form:
//
//   - the ideal draw: the logical circuit's outcome distribution;
//   - gate flips: Poisson(μ_l·D) events land on qubit l independently
//     (Poisson splitting), so qubit l flips with the parity probability
//     (1 − e^(−2μ_l·D))/2;
//   - decoherence: a 2×2 map per qubit, decay 1 → 0 with probability
//     min(1, p₁·D), then a flip with probability min(1, p₂·D);
//   - the burst: Poisson(λ_b·D) flips, spread by the walk. A dynamic
//     programme over (walker position, flip mask) gives the mask
//     distribution after k flips, and the Poisson sum is cut where its
//     remaining tail mass falls below burstTailMass;
//   - readout: an independent flip per qubit, without drift.
//
// The drift D = exp(σZ − σ²/2) is integrated out by Gauss–Hermite
// quadrature in Z. The oracle derives every rate from the transpiled
// circuit and the calibration itself, sharing no table with the sampler.

// burstTailMass bounds the Poisson mass the burst sum leaves out at each
// quadrature node (a geometric bound on the tail, see burstMasks).
const burstTailMass = 1e-13

// hermiteNodes is the Gauss–Hermite order; nodes whose normalized weight
// is below hermiteMinWeight are skipped (their summed weight bounds the
// error, and their drift would make the burst sum needlessly long).
const (
	hermiteNodes     = 64
	hermiteMinWeight = 1e-16
)

// oracleModel is one induction's failure-event parameters, by logical
// qubit.
type oracleModel struct {
	n       int
	ideal   []float64 // P(v) for every v < 2^n
	gate    []float64 // μ_l: expected gate flip events on qubit l
	decay   []float64
	dephase []float64
	readout []float64
	burst   float64
	walk    bool
	adj     [][]int
	sigma   float64
}

// newOracleModel derives the model's rates for c transpiled as res on b.
func newOracleModel(t testing.TB, b *device.Backend, m Model, c *circuit.Circuit, res *transpile.Result) *oracleModel {
	t.Helper()
	n := c.N
	ideal, err := statevector.IdealDistCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := Rates(res, b, m)
	if err != nil {
		t.Fatal(err)
	}
	om := &oracleModel{
		n: n, ideal: make([]float64, 1<<n),
		gate: make([]float64, n), decay: make([]float64, n), dephase: make([]float64, n), readout: make([]float64, n),
		burst: rates.Burst, walk: m.BurstWalk, adj: activeTwoQubitGraph(c), sigma: m.RateJitter,
	}
	for v := range om.ideal {
		om.ideal[v] = ideal.Prob(bitstring.BitString(v))
	}
	for l := 0; l < n; l++ {
		q := b.Calibration.Qubits[res.Final[l]]
		if m.Decoherence {
			om.decay[l] = 1 - math.Exp(-res.Time/q.T1)
			om.dephase[l] = 0.5 * (1 - math.Exp(-res.Time/q.T2))
		}
		if m.Readout {
			om.readout[l] = q.ReadoutError
		}
	}
	if m.GateErrors {
		// Each unitary gate's error splits evenly over its qubits; a
		// share landing on a routing ancilla spreads over the register.
		logical := make(map[int]int, n)
		for l, p := range res.Final {
			logical[p] = l
		}
		for _, g := range res.Circuit.Gates {
			if !g.Kind.IsUnitary() {
				continue
			}
			share := b.Calibration.GateError(g.Qubits) / float64(len(g.Qubits))
			for _, p := range g.Qubits {
				if l, ok := logical[p]; ok {
					om.gate[l] += share
					continue
				}
				for l := range om.gate {
					om.gate[l] += share / float64(n)
				}
			}
		}
	}
	return om
}

// exact returns the model's outcome distribution over all 2^n strings.
func (om *oracleModel) exact() []float64 {
	out := make([]float64, len(om.ideal))
	if om.sigma == 0 {
		om.addAtDrift(out, 1, 1)
		return out
	}
	x, w := gaussHermite(hermiteNodes)
	for i := range x {
		wi := w[i] / math.Sqrt(math.Pi)
		if wi < hermiteMinWeight {
			continue
		}
		om.addAtDrift(out, math.Exp(om.sigma*math.Sqrt2*x[i]-om.sigma*om.sigma/2), wi)
	}
	return out
}

// addAtDrift adds weight × the outcome distribution at drift d to out.
func (om *oracleModel) addAtDrift(out []float64, d, weight float64) {
	p := append([]float64(nil), om.ideal...)
	for l := 0; l < om.n; l++ {
		flipChannel(p, l, (1-math.Exp(-2*om.gate[l]*d))/2)
		a, b := math.Min(1, om.decay[l]*d), math.Min(1, om.dephase[l]*d)
		bit := 1 << l
		for v := range p {
			if v&bit != 0 {
				continue
			}
			p0, p1 := p[v], p[v|bit]
			p[v] = p0*(1-b) + p1*(a*(1-b)+(1-a)*b)
			p[v|bit] = p0*b + p1*(a*b+(1-a)*(1-b))
		}
	}
	if om.burst > 0 {
		masks := om.burstMasks(om.burst * d)
		q := make([]float64, len(p))
		for v, pv := range p {
			for m, pm := range masks {
				q[v^m] += pv * pm
			}
		}
		p = q
	}
	for l := 0; l < om.n; l++ {
		flipChannel(p, l, om.readout[l])
	}
	for v := range out {
		out[v] += weight * p[v]
	}
}

// flipChannel flips bit l of the distribution p with probability q.
func flipChannel(p []float64, l int, q float64) {
	bit := 1 << l
	for v := range p {
		if v&bit == 0 {
			p0, p1 := p[v], p[v|bit]
			p[v], p[v|bit] = (1-q)*p0+q*p1, q*p0+(1-q)*p1
		}
	}
}

// burstMasks returns the distribution of one shot's burst flip mask at
// rate lam: Σ_k Poisson(k; lam)·M_k, where M_k is the mask distribution
// after k walk steps. The walk starts on a uniform qubit; after each flip
// it moves to a uniform neighbour with probability 0.8 (when it has
// one), otherwise to a uniform qubit. Without BurstWalk every flip lands
// on a uniform qubit.
func (om *oracleModel) burstMasks(lam float64) []float64 {
	n, size := om.n, 1<<om.n
	move := make([][]float64, n) // move[q][q'] = P(q → q')
	for q := range move {
		move[q] = make([]float64, n)
		nb := om.adj[q]
		for r := range move[q] {
			move[q][r] = 1 / float64(n)
		}
		if om.walk && len(nb) > 0 {
			for r := range move[q] {
				move[q][r] = 0.2 / float64(n)
			}
			for _, r := range nb {
				move[q][r] += 0.8 / float64(len(nb))
			}
		}
	}
	state := make([]float64, n*size) // state[q*size+mask]
	for q := 0; q < n; q++ {
		state[q*size] = 1 / float64(n)
	}
	next := make([]float64, n*size)
	masks := make([]float64, size)
	for k := 0; ; k++ {
		pk := math.Exp(float64(k)*math.Log(lam) - lam - mathx.LogFactorial(k))
		for q := 0; q < n; q++ {
			for m := 0; m < size; m++ {
				masks[m] += pk * state[q*size+m]
			}
		}
		// Past the mode the terms fall at least geometrically, by
		// ρ = λ/(k+2) from p_{k+1} on, so the left-out tail P(K > k) is
		// at most p_{k+1}/(1 − ρ).
		if rho := lam / float64(k+2); rho < 1 && pk*lam/float64(k+1)/(1-rho) < burstTailMass {
			return masks
		}
		clear(next)
		for q := 0; q < n; q++ {
			for m := 0; m < size; m++ {
				s := state[q*size+m]
				if s == 0 {
					continue
				}
				flipped := m ^ 1<<q
				for r, pr := range move[q] {
					next[r*size+flipped] += s * pr
				}
			}
		}
		state, next = next, state
	}
}

// gaussHermite returns the m nodes and weights of Gauss–Hermite
// quadrature, ∫ e^(−x²) f(x) dx ≈ Σ w_i f(x_i): Newton's method on the
// orthonormal Hermite recurrence from the standard asymptotic first
// guesses (Numerical Recipes' gauher).
func gaussHermite(m int) (x, w []float64) {
	x, w = make([]float64, m), make([]float64, m)
	piM4 := math.Pow(math.Pi, -0.25)
	var z float64
	for i := 0; i < (m+1)/2; i++ {
		switch i {
		case 0:
			z = math.Sqrt(float64(2*m+1)) - 1.85575*math.Pow(float64(2*m+1), -0.16667)
		case 1:
			z -= 1.14 * math.Pow(float64(m), 0.426) / z
		case 2:
			z = 1.86*z - 0.86*x[0]
		case 3:
			z = 1.91*z - 0.91*x[1]
		default:
			z = 2*z - x[i-2]
		}
		var pp float64
		for it := 0; it < 100; it++ {
			p1, p2 := piM4, 0.0
			for j := 0; j < m; j++ {
				p3 := p2
				p2 = p1
				p1 = z*math.Sqrt(2/float64(j+1))*p2 - math.Sqrt(float64(j)/float64(j+1))*p3
			}
			pp = math.Sqrt(float64(2*m)) * p2
			z1 := z
			z = z1 - p1/pp
			if math.Abs(z-z1) < 1e-14 {
				break
			}
		}
		x[i], x[m-1-i] = z, -z
		w[i] = 2 / (pp * pp)
		w[m-1-i] = w[i]
	}
	return x, w
}

// gTest compares the sampled counts with the exact distribution by a
// G-test: cells expected below 5 counts pool into one, and the p-value
// is the chi-square survival at df = cells − 1 (Wilson–Hilferty). An
// observed outcome the model gives no mass returns p = 0.
func gTest(counts *bitstring.Dist, exact []float64) (g float64, df int, p float64) {
	total := counts.Total()
	var poolO, poolE float64
	cells := 0
	term := func(o, e float64) {
		if o > 0 {
			g += 2 * o * math.Log(o/e)
		}
	}
	for v, pv := range exact {
		o, e := counts.Count(bitstring.BitString(v)), total*pv
		if e < 5 {
			poolO += o
			poolE += e
			continue
		}
		term(o, e)
		cells++
	}
	if poolO > 0 && poolE == 0 {
		return math.Inf(1), cells, 0
	}
	if poolE > 0 {
		term(poolO, poolE)
		cells++
	}
	df = max(cells-1, 1)
	k := float64(df)
	z := (math.Cbrt(g/k) - (1 - 2/(9*k))) / math.Sqrt(2/(9*k))
	return g, df, math.Erfc(z/math.Sqrt2) / 2
}

// oracleCase is one model configuration the oracle checks.
type oracleCase struct {
	name  string
	b     *device.Backend
	model Model
	c     *circuit.Circuit
}

// oracleCircuit is a 5-qubit circuit whose ideal distribution spreads
// over many outcomes, with both bit values on every qubit.
func oracleCircuit() *circuit.Circuit {
	return circuit.New("oracle", 5).H(0).CX(0, 1).RY(0.7, 2).CX(1, 2).H(3).CX(2, 3).RX(1.1, 4).CX(3, 4).RZ(0.4, 4).CX(4, 0).MeasureAll()
}

// oracleCases lists the configurations: the default model on three
// backends with the burst walk on and off, the Markovian model, each
// channel alone, and a gate-event rate near 20 as in the QAOA fleet.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	byName := func(name string) *device.Backend {
		b, err := device.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ion, err := device.IonBackend()
	if err != nil {
		t.Fatal(err)
	}
	c := oracleCircuit()
	var cases []oracleCase
	for _, b := range []*device.Backend{byName("eldorado"), byName("galway"), ion} {
		for _, walk := range []bool{true, false} {
			m := DefaultModel()
			m.BurstWalk = walk
			cases = append(cases, oracleCase{fmt.Sprintf("default/%s/walk=%v", b.Name, walk), b, m, c})
		}
	}
	noisy := byName("nairobi2")
	cases = append(cases,
		oracleCase{"markovian/nairobi2", noisy, MarkovianModel(), ghz(6)},
		oracleCase{"gate-only", noisy, Model{GateErrors: true}, c},
		oracleCase{"decoherence-only", noisy, Model{Decoherence: true}, c},
		oracleCase{"readout-only", noisy, Model{Readout: true}, c},
		oracleCase{"burst-only", noisy, Model{BurstScale: 1.2, BurstWalk: true}, c},
	)
	// Twelve layers of a brick of CX on a noisy all-to-all register put
	// about 20 expected gate events on every shot.
	deep := circuit.New("deep", 5)
	for layer := 0; layer < 12; layer++ {
		for q := 0; q < 5; q++ {
			deep.RY(0.3*float64(layer+q), q)
		}
		for q := layer % 2; q+1 < 5; q += 2 {
			deep.CX(q, q+1)
		}
	}
	deep.MeasureAll()
	cases = append(cases, oracleCase{"default/lambda-gate-20", uniformBackend(t, 5, 0.05, 0.3, 0.02), DefaultModel(), deep})
	return cases
}

// oracleShots and oracleSeeds fix the sample: every case is sampled at
// each seed and must pass the G-test at oracleAlpha.
const (
	oracleShots = 200_000
	oracleAlpha = 1e-4
)

var oracleSeeds = []uint64{1, 2}

// TestSamplerMatchesExactOracle samples every oracle case at every
// seed and compares the counts with the exact distribution.
func TestSamplerMatchesExactOracle(t *testing.T) {
	ctx := context.Background()
	for _, tc := range oracleCases(t) {
		res, err := transpile.TranspileCtx(ctx, tc.c, tc.b, nil)
		if err != nil {
			t.Fatal(err)
		}
		om := newOracleModel(t, tc.b, tc.model, tc.c, res)
		exact := om.exact()
		exec, err := NewExecutor(tc.b, tc.model)
		if err != nil {
			t.Fatal(err)
		}
		rates, _ := Rates(res, tc.b, tc.model)
		for _, seed := range oracleSeeds {
			run, err := exec.ExecuteTranspiledCtx(ctx, tc.c, res, oracleShots, mathx.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			g, df, p := gTest(run.Counts, exact)
			t.Logf("%-28s seed %d  λ_gate %6.2f  G = %8.1f  df %2d  p = %.3g", tc.name, seed, rates.Gate, g, df, p)
			if p < oracleAlpha {
				t.Errorf("%s seed %d: sampled counts differ from the exact model: G = %.1f on %d df (p = %.3g)", tc.name, seed, g, df, p)
			}
		}
	}
}

// TestOracleQuadrature pins the oracle's own arithmetic: the quadrature
// integrates the unit-mean drift to 1 and the exact distribution sums to
// 1, and it agrees with a brute-force mixture over a fine drift grid
// to 1e-7, far below the 2×10⁵-shot sampling error (~10⁻⁴).
func TestOracleQuadrature(t *testing.T) {
	x, w := gaussHermite(hermiteNodes)
	var mass, mean float64
	for i := range x {
		mass += w[i] / math.Sqrt(math.Pi)
		mean += w[i] / math.Sqrt(math.Pi) * math.Exp(0.8*math.Sqrt2*x[i]-0.32)
	}
	if math.Abs(mass-1) > 1e-12 || math.Abs(mean-1) > 1e-12 {
		t.Fatalf("quadrature mass %v, drift mean %v; want 1, 1", mass, mean)
	}
	b := testBackend(t)
	c := oracleCircuit()
	res, err := transpile.TranspileCtx(context.Background(), c, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	om := newOracleModel(t, b, DefaultModel(), c, res)
	exact := om.exact()
	// Midpoint rule in z over [−9, 9]: slow, but independent of the nodes.
	grid := make([]float64, len(exact))
	const steps = 2000
	for i := 0; i < steps; i++ {
		z := -9 + 18*(float64(i)+0.5)/steps
		om.addAtDrift(grid, math.Exp(om.sigma*z-om.sigma*om.sigma/2), 18.0/steps*math.Exp(-z*z/2)/math.Sqrt(2*math.Pi))
	}
	var sum float64
	for v := range exact {
		sum += exact[v]
		if d := math.Abs(exact[v] - grid[v]); d > 1e-7 {
			t.Errorf("P(%05b): quadrature %v, grid %v", v, exact[v], grid[v])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("exact distribution sums to %v", sum)
	}
}

// FuzzSamplerOracle: for random small failure-event models, 2×10⁴ shots
// pass the oracle's G-test at p ≥ 10⁻⁶.
func FuzzSamplerOracle(f *testing.F) {
	f.Add(true, true, true, 1.2, true, 0.8, uint8(0), uint64(1))
	f.Add(true, false, true, 0.0, false, 0.3, uint8(1), uint64(2))
	f.Add(false, true, false, 2.5, false, 1.0, uint8(2), uint64(3))
	var backends []*device.Backend
	for _, name := range []string{"eldorado", "galway", "nairobi2"} {
		b, err := device.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		backends = append(backends, b)
	}
	c := oracleCircuit()
	f.Fuzz(func(t *testing.T, gate, deco, readout bool, burst float64, walk bool, jitter float64, backend uint8, seed uint64) {
		if !(burst >= 0 && burst <= 3 && jitter >= 0 && jitter <= 1) {
			t.Skip()
		}
		b := backends[int(backend)%len(backends)]
		m := Model{GateErrors: gate, Decoherence: deco, Readout: readout, BurstScale: burst, BurstWalk: walk, RateJitter: jitter}
		res, err := transpile.TranspileCtx(context.Background(), c, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		exec, err := NewExecutor(b, m)
		if err != nil {
			t.Fatal(err)
		}
		run, err := exec.ExecuteTranspiledCtx(context.Background(), c, res, 20_000, mathx.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if g, df, p := gTest(run.Counts, newOracleModel(t, b, m, c, res).exact()); p < 1e-6 {
			t.Fatalf("%+v on %s: G = %.1f on %d df (p = %.3g)", m, b.Name, g, df, p)
		}
	})
}

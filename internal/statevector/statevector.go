// Package statevector implements a dense state-vector simulator for the
// circuit IR. It is the ideal-execution substrate: noiseless probabilities,
// expectation values, and shot sampling for registers up to ~20 qubits.
//
// Gate application goes through the pair-stride kernel engine (kernels.go):
// branch-free block iteration, diagonal and permutation fast paths, fusion
// of adjacent single-qubit gates, and sharding of the amplitude array
// across internal/par workers for wide registers. The textbook full-scan
// implementation is retained as naiveApply, the randomized-equivalence
// oracle the kernels are tested against.
package statevector

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
	"qbeep/internal/obs"
)

// MaxQubits bounds the register width (2^24 amplitudes ≈ 256 MiB).
const MaxQubits = 24

// Simulation metrics (see internal/obs): run wall time, cumulative gate
// and shot counts, and the width of the most recent run.
var (
	metRun   = obs.Default.Timer("sim.run")
	metRuns  = obs.Default.Counter("sim.runs")
	metGates = obs.Default.Counter("sim.gates")
	metShots = obs.Default.Counter("sim.shots")
	metWidth = obs.Default.Gauge("sim.width")
)

// State is an n-qubit pure state: 2^n complex amplitudes with qubit 0 the
// least-significant index bit.
type State struct {
	n       int
	amp     []complex128
	workers int // kernel shard count; 0 = auto (GOMAXPROCS above threshold)
	// ctx carries the active trace span while RunConfiguredCtx drives
	// the state, so kernel shard fan-outs parent their worker spans
	// under the "sim.run" span. Nil outside a traced run.
	ctx context.Context
}

// New returns the all-zeros computational basis state |0...0⟩.
func New(n int) (*State, error) {
	if n <= 0 || n > MaxQubits {
		return nil, fmt.Errorf("statevector: width %d outside (0,%d]", n, MaxQubits)
	}
	s := &State{n: n, amp: make([]complex128, 1<<uint(n))}
	s.amp[0] = 1
	return s, nil
}

// NewBasis returns the computational basis state |b⟩.
func NewBasis(n int, b bitstring.BitString) (*State, error) {
	if uint64(b) >= uint64(1)<<uint(n) {
		return nil, fmt.Errorf("statevector: basis state %d outside %d-qubit register", b, n)
	}
	s, err := New(n)
	if err != nil {
		return nil, err
	}
	s.amp[0] = 0
	s.amp[b] = 1
	return s, nil
}

// N returns the register width.
func (s *State) N() int { return s.n }

// Amplitude returns the amplitude of basis state b.
func (s *State) Amplitude(b bitstring.BitString) complex128 { return s.amp[b] }

// SetWorkers sets the kernel shard count: w > 1 shards every kernel over w
// par workers, w == 1 forces serial application, and w <= 0 restores the
// default (GOMAXPROCS workers once the register is wide enough to pay for
// the fan-out). The state's contents are bitwise independent of w.
func (s *State) SetWorkers(w int) {
	if w < 0 {
		w = 0
	}
	s.workers = w
}

// Reset returns the state to the computational basis state |b⟩ in place,
// reusing the amplitude buffer (no allocation).
func (s *State) Reset(b bitstring.BitString) error {
	if uint64(b) >= uint64(len(s.amp)) {
		return fmt.Errorf("statevector: basis state %d outside %d-qubit register", b, s.n)
	}
	clear(s.amp)
	s.amp[b] = 1
	return nil
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	c := &State{n: s.n, amp: make([]complex128, len(s.amp)), workers: s.workers}
	copy(c.amp, s.amp)
	return c
}

// Norm returns the 2-norm of the state (1 for a valid state).
func (s *State) Norm() float64 {
	var sum float64
	for _, a := range s.amp {
		sum += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(sum)
}

// Prob returns the measurement probability of basis state b.
func (s *State) Prob(b bitstring.BitString) float64 {
	a := s.amp[b]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Probabilities returns the full probability vector as a fresh slice.
func (s *State) Probabilities() []float64 {
	return s.ProbabilitiesInto(nil)
}

// ProbabilitiesInto writes the probability vector into dst, reusing its
// storage when it has sufficient capacity (allocating only otherwise), and
// returns the written slice. Callers on hot loops keep one scratch slice
// alive and pass it back in every call.
func (s *State) ProbabilitiesInto(dst []float64) []float64 {
	if cap(dst) < len(s.amp) {
		dst = make([]float64, len(s.amp))
	}
	dst = dst[:len(s.amp)]
	for i, a := range s.amp {
		dst[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return dst
}

// applyMatrix1 applies a 2x2 unitary to qubit q (oracle path).
func (s *State) applyMatrix1(q int, m [2][2]complex128) {
	mask := 1 << uint(q)
	for i := 0; i < len(s.amp); i++ {
		if i&mask != 0 {
			continue
		}
		j := i | mask
		a0, a1 := s.amp[i], s.amp[j]
		s.amp[i] = m[0][0]*a0 + m[0][1]*a1
		s.amp[j] = m[1][0]*a0 + m[1][1]*a1
	}
}

// phase1 multiplies the |1⟩ component of qubit q by ph (oracle path).
func (s *State) phase1(q int, ph complex128) {
	mask := 1 << uint(q)
	for i := range s.amp {
		if i&mask != 0 {
			s.amp[i] *= ph
		}
	}
}

// flip applies X on qubit q (oracle path: pure permutation).
func (s *State) flip(q int) {
	mask := 1 << uint(q)
	for i := 0; i < len(s.amp); i++ {
		if i&mask == 0 {
			j := i | mask
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}

const invSqrt2 = 0.7071067811865476

func u3Matrix(theta, phi, lambda float64) [2][2]complex128 {
	ct, st := math.Cos(theta/2), math.Sin(theta/2)
	return [2][2]complex128{
		{complex(ct, 0), -cmplx.Exp(complex(0, lambda)) * complex(st, 0)},
		{cmplx.Exp(complex(0, phi)) * complex(st, 0),
			cmplx.Exp(complex(0, phi+lambda)) * complex(ct, 0)},
	}
}

// Apply applies one unitary gate through the kernel engine. Measurements
// and barriers are ignored here; sampling handles measurement (see
// Sample). The result is bit-identical to naiveApply for every gate kind.
func (s *State) Apply(g circuit.Gate) error {
	if err := g.Validate(s.n); err != nil {
		return err
	}
	o, err := gateOp(g)
	if err != nil {
		return err
	}
	s.applyOp(o)
	return nil
}

// naiveApply is the seed repository's full-scan gate application: one pass
// over all 2^n amplitudes with a per-index mask test for every gate. It is
// kept as the randomized-equivalence oracle for the kernel engine (the
// same role bruteScanEdges plays for the state-graph engine) and as the
// benchmark baseline in BENCH_sim.json.
func (s *State) naiveApply(g circuit.Gate) error {
	if err := g.Validate(s.n); err != nil {
		return err
	}
	switch g.Kind {
	case circuit.I, circuit.Barrier, circuit.Measure:
		// no-op on the pure state
	case circuit.X:
		s.flip(g.Qubits[0])
	case circuit.Y:
		s.applyMatrix1(g.Qubits[0], [2][2]complex128{{0, -1i}, {1i, 0}})
	case circuit.Z:
		s.phase1(g.Qubits[0], -1)
	case circuit.H:
		s.applyMatrix1(g.Qubits[0], [2][2]complex128{
			{invSqrt2, invSqrt2}, {invSqrt2, -invSqrt2}})
	case circuit.S:
		s.phase1(g.Qubits[0], 1i)
	case circuit.Sdg:
		s.phase1(g.Qubits[0], -1i)
	case circuit.T:
		s.phase1(g.Qubits[0], cmplx.Exp(1i*math.Pi/4))
	case circuit.Tdg:
		s.phase1(g.Qubits[0], cmplx.Exp(-1i*math.Pi/4))
	case circuit.SX:
		s.applyMatrix1(g.Qubits[0], [2][2]complex128{
			{complex(0.5, 0.5), complex(0.5, -0.5)},
			{complex(0.5, -0.5), complex(0.5, 0.5)}})
	case circuit.RX:
		th := g.Params[0]
		c, sn := math.Cos(th/2), math.Sin(th/2)
		s.applyMatrix1(g.Qubits[0], [2][2]complex128{
			{complex(c, 0), complex(0, -sn)},
			{complex(0, -sn), complex(c, 0)}})
	case circuit.RY:
		th := g.Params[0]
		c, sn := math.Cos(th/2), math.Sin(th/2)
		s.applyMatrix1(g.Qubits[0], [2][2]complex128{
			{complex(c, 0), complex(-sn, 0)},
			{complex(sn, 0), complex(c, 0)}})
	case circuit.RZ:
		phi := g.Params[0]
		mask := 1 << uint(g.Qubits[0])
		ph0 := cmplx.Exp(complex(0, -phi/2))
		ph1 := cmplx.Exp(complex(0, phi/2))
		for i := range s.amp {
			if i&mask != 0 {
				s.amp[i] *= ph1
			} else {
				s.amp[i] *= ph0
			}
		}
	case circuit.U3:
		s.applyMatrix1(g.Qubits[0], u3Matrix(g.Params[0], g.Params[1], g.Params[2]))
	case circuit.CX:
		cm := 1 << uint(g.Qubits[0])
		tm := 1 << uint(g.Qubits[1])
		for i := 0; i < len(s.amp); i++ {
			if i&cm != 0 && i&tm == 0 {
				j := i | tm
				s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
			}
		}
	case circuit.CZ:
		am := 1 << uint(g.Qubits[0])
		bm := 1 << uint(g.Qubits[1])
		for i := range s.amp {
			if i&am != 0 && i&bm != 0 {
				s.amp[i] = -s.amp[i]
			}
		}
	case circuit.SWAP:
		am := 1 << uint(g.Qubits[0])
		bm := 1 << uint(g.Qubits[1])
		for i := 0; i < len(s.amp); i++ {
			if i&am != 0 && i&bm == 0 {
				j := i ^ am ^ bm
				s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
			}
		}
	case circuit.CCX:
		c1 := 1 << uint(g.Qubits[0])
		c2 := 1 << uint(g.Qubits[1])
		tm := 1 << uint(g.Qubits[2])
		for i := 0; i < len(s.amp); i++ {
			if i&c1 != 0 && i&c2 != 0 && i&tm == 0 {
				j := i | tm
				s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
			}
		}
	case circuit.CSWAP:
		cm := 1 << uint(g.Qubits[0])
		am := 1 << uint(g.Qubits[1])
		bm := 1 << uint(g.Qubits[2])
		for i := 0; i < len(s.amp); i++ {
			if i&cm != 0 && i&am != 0 && i&bm == 0 {
				j := i ^ am ^ bm
				s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
			}
		}
	default:
		return fmt.Errorf("statevector: unsupported gate %s", g.Kind)
	}
	return nil
}

// RunConfig tunes circuit execution.
type RunConfig struct {
	// Workers is the kernel shard count (see State.SetWorkers); 0 = auto.
	Workers int
	// NoFuse disables single-qubit gate fusion, applying each gate with
	// its own kernel (bit-identical to the naiveApply oracle). The fused
	// default matches the oracle within 1e-12 per amplitude.
	NoFuse bool
	// TileBits enables cache-blocked replay (see RunProgramTiled):
	// positive values set the tile width in qubits, zero disables
	// tiling. Output is bitwise identical for every value.
	TileBits int
}

// RunCtx applies every gate of the circuit to a fresh |0...0⟩ state and
// returns the final state (see RunConfiguredCtx).
func RunCtx(ctx context.Context, c *circuit.Circuit) (*State, error) {
	return RunConfiguredCtx(ctx, c, 0, RunConfig{})
}

// RunConfiguredCtx applies the circuit to |init⟩ with explicit engine
// configuration. The whole gate list is compiled (and, unless NoFuse is
// set, fused) before any amplitude is touched. The "sim.run" span
// parents under the span active in ctx, and while the run is live the
// amplitude shard fan-outs parent their "par.worker" spans under it.
func RunConfiguredCtx(ctx context.Context, c *circuit.Circuit, init bitstring.BitString, cfg RunConfig) (*State, error) {
	if err := c.Err(); err != nil {
		return nil, err
	}
	p, err := Compile(c, cfg)
	if err != nil {
		return nil, err
	}
	s, err := NewBasis(c.N, init)
	if err != nil {
		return nil, err
	}
	s.SetWorkers(cfg.Workers)
	runCtx, sp := obs.Start(ctx, "sim.run")
	s.ctx = runCtx
	err = s.RunProgramTiled(p, cfg.TileBits)
	s.ctx = nil
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetAttr("circuit", c.Name)
	sp.SetAttr("width", c.N)
	sp.SetAttr("gates", len(c.Gates))
	sp.SetAttr("ops", p.Ops())
	metRun.ObserveDuration(sp.End())
	metRuns.Inc()
	metGates.Add(int64(len(c.Gates)))
	metWidth.Set(float64(c.N))
	return s, nil
}

// IdealDistCtx returns the exact output distribution of the circuit
// (scaled to probability 1): the paper's "true solution" reference.
func IdealDistCtx(ctx context.Context, c *circuit.Circuit) (*bitstring.Dist, error) {
	s, err := RunCtx(ctx, c)
	if err != nil {
		return nil, err
	}
	return s.Dist(), nil
}

// Dist converts the state's probabilities into a bitstring.Dist with total
// mass 1, dropping negligible (< 1e-12) entries. The result map is
// pre-sized to the exact support, so wide low-entropy states don't pay
// for rehash growth.
func (s *State) Dist() *bitstring.Dist {
	support := 0
	for _, a := range s.amp {
		if real(a)*real(a)+imag(a)*imag(a) > 1e-12 {
			support++
		}
	}
	d := bitstring.NewDistCap(s.n, support)
	for i, a := range s.amp {
		p := real(a)*real(a) + imag(a)*imag(a)
		if p > 1e-12 {
			d.Add(bitstring.BitString(i), p)
		}
	}
	return d
}

// Sample draws shots measurement outcomes from the state using the given
// RNG, via the cumulative method. One scratch vector is allocated and the
// cumulative sums are built in place over it (ProbabilitiesInto).
func (s *State) Sample(shots int, rng *mathx.RNG) *bitstring.Dist {
	cum := s.ProbabilitiesInto(nil)
	var acc float64
	for i, v := range cum {
		acc += v
		cum[i] = acc
	}
	metShots.Add(int64(shots))
	d := bitstring.NewDist(s.n)
	for i := 0; i < shots; i++ {
		d.Add(sampleCum(cum, acc, rng), 1)
	}
	return d
}

// sampleCum draws one outcome from a cumulative probability vector by
// binary search.
func sampleCum(cum []float64, total float64, rng *mathx.RNG) bitstring.BitString {
	u := rng.Float64() * total
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return bitstring.BitString(lo)
}

// ExpectationZ returns ⟨Z_q⟩ for qubit q.
func (s *State) ExpectationZ(q int) float64 {
	mask := 1 << uint(q)
	var e float64
	for i, a := range s.amp {
		p := real(a)*real(a) + imag(a)*imag(a)
		if i&mask == 0 {
			e += p
		} else {
			e -= p
		}
	}
	return e
}

// FidelityWith returns |⟨s|t⟩|², the pure-state fidelity.
func (s *State) FidelityWith(t *State) (float64, error) {
	if s.n != t.n {
		return 0, fmt.Errorf("statevector: width mismatch %d vs %d", s.n, t.n)
	}
	var ip complex128
	for i := range s.amp {
		ip += cmplx.Conj(s.amp[i]) * t.amp[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip), nil
}

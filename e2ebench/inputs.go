package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"qbeep"
	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
	"qbeep/internal/qaoa"
	"qbeep/internal/qasm"
)

// Workload names, in the order the README and BENCHMARK.json list them.
const (
	countsLarge = "counts-large"
	circuits    = "circuits"
	qaoaFleet   = "qaoa-fleet"
)

var workloadNames = []string{countsLarge, circuits, qaoaFleet}

// backends are the two catalog machines the circuit workloads run on: a
// 16-qubit ring and a 127-qubit heavy-hex lattice, so routing differs.
var backends = []string{"hanoi2", "kyiv"}

// size fixes every input dimension of the three workloads. The full size
// is what BENCHMARK.json runs; the smoke size exercises the same code on
// inputs small enough for a unit test.
type size struct {
	corpusWidth   int     // counts-large register width n
	corpusCentres int     // counts-large number of centres
	corpusShots   int     // counts-large shots per corpus
	corpusLambda  float64 // counts-large Poisson flip rate, also the λ mitigated at
	suite         []string
	bvWidths      []int // one BV secret per width
	qaoaWidths    []int // QAOA cells are width × depth 1..qaoaMaxP × graph family,
	qaoaMaxP      int   // with qaoaPerCell instances each
	qaoaPerCell   int
	shots         int // shots per simulated circuit request
}

var fullSize = size{
	corpusWidth:   20,
	corpusCentres: 8,
	corpusShots:   1_000_000,
	corpusLambda:  1.5,
	suite:         qbeep.SuiteNames(),
	bvWidths:      []int{5, 6, 7, 8, 9, 10},
	qaoaWidths:    []int{6, 8, 10},
	qaoaMaxP:      3,
	qaoaPerCell:   6,
	shots:         4096,
}

var smokeSize = size{
	corpusWidth:   12,
	corpusCentres: 3,
	corpusShots:   3000,
	corpusLambda:  1.5,
	suite:         []string{"adder_n4", "lpn_n5"},
	bvWidths:      []int{5},
	qaoaWidths:    []int{6},
	qaoaMaxP:      1,
	qaoaPerCell:   1,
	shots:         256,
}

// request is one generated input. Circuit requests carry QASM source and
// a backend; counts requests carry a ready corpus and the λ to mitigate
// at. Ideal is filled for counts requests only: circuit requests take
// theirs from the simulator's noiseless run.
type request struct {
	Name       string
	QASM       string
	Backend    string
	DataQubits []int
	ShotSeed   uint64
	Shots      int

	Counts qbeep.Counts
	Lambda float64
	Ideal  qbeep.Counts
}

// simulated reports whether the request goes through the simulator.
func (r *request) simulated() bool { return r.QASM != "" }

// generate builds a workload's requests from the seed. It is the whole of
// the benchmark's set-up: every corpus, QASM text, BV secret, QAOA
// instance (with its angle grid search) and shot seed is made here, so
// the timed loop hands the program only finished inputs.
func generate(name string, seed uint64, sz size) ([]request, error) {
	rng := newSplitMix(seed ^ hashName(name))
	var reqs []request
	var err error
	switch name {
	case countsLarge:
		reqs, err = corpusRequests(rng, sz)
	case circuits:
		reqs, err = circuitRequests(rng, sz)
	case qaoaFleet:
		reqs, err = qaoaRequests(rng, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", name, err)
	}
	rng.shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

// corpusRequests draws the paper's generative model at scale: shots
// spread uniformly over distinct random centres, each shot flipping a
// Poisson(λ)-distributed number of distinct random bits. The ideal is the
// uniform mixture over the centres.
func corpusRequests(rng *splitMix, sz size) ([]request, error) {
	n := sz.corpusWidth
	centres := make([]bitstring.BitString, 0, sz.corpusCentres)
	seen := map[bitstring.BitString]bool{}
	for len(centres) < sz.corpusCentres {
		c := bitstring.BitString(rng.next() & (1<<uint(n) - 1))
		if !seen[c] {
			seen[c] = true
			centres = append(centres, c)
		}
	}
	counts := make(map[bitstring.BitString]float64)
	for s := 0; s < sz.corpusShots; s++ {
		v := centres[rng.intn(len(centres))]
		flipped := uint64(0)
		for k := min(rng.poisson(sz.corpusLambda), n); k > 0; {
			bit := uint64(1) << uint(rng.intn(n))
			if flipped&bit == 0 {
				flipped |= bit
				k--
			}
		}
		counts[v^bitstring.BitString(flipped)]++
	}
	raw := make(qbeep.Counts, len(counts))
	for v, c := range counts {
		raw[bitstring.Format(v, n)] = c
	}
	ideal := make(qbeep.Counts, len(centres))
	for _, c := range centres {
		ideal[bitstring.Format(c, n)] = 1
	}
	return []request{{
		Name:   fmt.Sprintf("corpus_n%d_c%d", n, len(centres)),
		Counts: raw,
		Lambda: sz.corpusLambda,
		Ideal:  ideal,
	}}, nil
}

// bvSecretSeed fixes the Bernstein–Vazirani secrets. Which bits a secret
// sets decides how far its CXs are routed on each backend, and with it
// the request's cost: a weight-5 secret at n = 10 takes 8–14 ms depending
// on where its bits fall, and the two widest secrets are the tail of the
// workload. So the secrets are pinned, like the suite, and the workload
// seed draws the shot seeds and the request order.
const bvSecretSeed = 2023

// circuitRequests pairs the QASMBench-style suite plus one pinned
// Bernstein–Vazirani secret per width with every backend.
func circuitRequests(rng *splitMix, sz size) ([]request, error) {
	type source struct {
		name string
		qasm string
		data []int
	}
	var srcs []source
	for _, name := range sz.suite {
		src, _, data, err := qbeep.SuiteCircuit(name)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, source{name, src, data})
	}
	srng := newSplitMix(bvSecretSeed)
	for _, w := range sz.bvWidths {
		// The secret's weight sets the CX count and with it λ, the graph
		// size and the request's cost, so it is fixed at half the width.
		secret := []byte(strings.Repeat("0", w))
		for set := 0; set < (w+1)/2; {
			if i := srng.intn(w); secret[i] == '0' {
				secret[i] = '1'
				set++
			}
		}
		src, err := qbeep.BernsteinVaziraniQASM(string(secret))
		if err != nil {
			return nil, err
		}
		data, err := qbeep.DataQubits(w)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, source{"bv_" + string(secret), src, data})
	}
	var reqs []request
	for _, b := range backends {
		for _, s := range srcs {
			reqs = append(reqs, request{
				Name: s.name + "@" + b, QASM: s.qasm, Backend: b,
				DataQubits: s.data, ShotSeed: rng.next(), Shots: sz.shots,
			})
		}
	}
	return reqs, nil
}

// qaoaCorpusSeed fixes the QAOA corpus. Like the QASMBench suite, the
// corpus is pinned: the graphs set λ, and λ near the register width
// decides between a near-complete graph (hundreds of milliseconds) and an
// empty one (about a millisecond), so a corpus redrawn per seed would move
// the figures more than the program does. The workload seed draws the
// shot seeds and the request order.
const qaoaCorpusSeed = 2023

// qaoaRequests builds the Fig. 10 corpus from the generator's own parts
// (3-regular and G(n, 0.4) graphs, angles by qaoa.NewInstance's grid
// search, as qaoa.Dataset does) with a fixed number of instances per
// (width, depth, family) cell, and pairs every instance with every
// backend. qaoa.Dataset draws widths and depths at random instead, so the
// share of expensive cells would vary with the draw.
func qaoaRequests(rng *splitMix, sz size) ([]request, error) {
	grng := mathx.NewRNG(qaoaCorpusSeed)
	var insts []*qaoa.Instance
	for _, n := range sz.qaoaWidths {
		for p := 1; p <= sz.qaoaMaxP; p++ {
			for _, regular := range []bool{true, false} {
				for j := 0; j < sz.qaoaPerCell; j++ {
					inst, err := qaoaInstance(n, p, regular, grng)
					if err != nil {
						return nil, err
					}
					insts = append(insts, inst)
				}
			}
		}
	}
	var reqs []request
	for _, b := range backends {
		for i, inst := range insts {
			src, err := qasm.Write(inst.Circuit)
			if err != nil {
				return nil, err
			}
			data, err := qbeep.DataQubits(inst.Graph.N)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, request{
				Name: fmt.Sprintf("qaoa%03d_n%d_p%d_m%d@%s", i, inst.Graph.N, inst.P, len(inst.Graph.Edges), b),
				QASM: src, Backend: b, DataQubits: data,
				ShotSeed: rng.next(), Shots: sz.shots,
			})
		}
	}
	return reqs, nil
}

// qaoaInstance samples graphs of one family until qaoa.NewInstance accepts
// one (it rejects graphs whose grid search finds no improving angles).
func qaoaInstance(n, p int, regular bool, rng *mathx.RNG) (*qaoa.Instance, error) {
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		var g *qaoa.Graph
		if regular {
			g, err = qaoa.Random3Regular(n, rng)
		} else {
			g, err = qaoa.RandomErdosRenyi(n, 0.4, rng)
		}
		if err != nil {
			return nil, err
		}
		var inst *qaoa.Instance
		if inst, err = qaoa.NewInstance(g, p); err == nil {
			return inst, nil
		}
	}
	return nil, fmt.Errorf("no QAOA instance with n=%d p=%d: %w", n, p, err)
}

// splitMix is the benchmark's own input generator (SplitMix64), kept apart
// from the program's RNG so a change to it cannot change the corpus, the
// BV secrets, the shot seeds or the request order. The QAOA graphs are
// drawn by the qaoa package with the program's RNG.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *splitMix) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *splitMix) intn(n int) int { return int(r.next() % uint64(n)) }

// poisson draws by inversion (Knuth), exact for the small rates used here.
func (r *splitMix) poisson(lambda float64) int {
	limit, p, k := math.Exp(-lambda), r.float64(), 0
	for p > limit {
		p *= r.float64()
		k++
	}
	return k
}

func (r *splitMix) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// hashName separates the workloads' streams under one seed.
func hashName(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

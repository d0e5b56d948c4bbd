package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
)

// benchGraphConfigs spans the regimes the figure corpus hits: moderate
// and large vertex counts, tight and loose Poisson radii. The rows gate
// the edge scan (BENCH_core.json), so each stays on CSR rows: the cost
// model sends V512/λ1 to the scan directly and V4096/λ1 after the pair
// histogram rejects it. V4096/λ2 (E ≈ 3.2×10⁵ > E* ≈ 2×10⁵) would take
// the spectrum, so it goes through the strategy seam to the ball walk,
// the scan its auto mode ran before the spectrum served 16 qubits.
var benchGraphConfigs = []struct {
	v      int
	lambda float64
	strat  scanStrategy
}{
	{512, 1, scanAuto},
	{4096, 1, scanAuto},
	{4096, 2, scanSphere},
}

// benchGraphDist draws v distinct outcomes uniformly over 16 qubits.
func benchGraphDist(v int) *bitstring.Dist {
	const n = 16
	rng := mathx.NewRNG(97)
	counts := make(map[bitstring.BitString]float64, v)
	for len(counts) < v {
		counts[bitstring.BitString(rng.Intn(1<<n))] += float64(rng.Intn(20) + 1)
	}
	return bitstring.FromCounts(n, counts)
}

// benchClusterDist draws the e2ebench counts-large corpus shape: shots
// spread uniformly over distinct random centres, each shot flipping a
// Poisson(λ)-distributed number of distinct random bits.
func benchClusterDist(n, centres, shots int, lambda float64) *bitstring.Dist {
	rng := mathx.NewRNG(97)
	pois := mathx.Poisson{Lambda: lambda}
	cs := make([]bitstring.BitString, 0, centres)
	for len(cs) < centres {
		c := bitstring.BitString(rng.Uint64() & (1<<uint(n) - 1))
		if !slices.Contains(cs, c) {
			cs = append(cs, c)
		}
	}
	counts := make(map[bitstring.BitString]float64)
	for s := 0; s < shots; s++ {
		v := cs[rng.Intn(len(cs))]
		var flipped bitstring.BitString
		for k := min(pois.Sample(rng.Float64), n); k > 0; {
			if bit := bitstring.BitString(1) << uint(rng.Intn(n)); flipped&bit == 0 {
				flipped |= bit
				k--
			}
		}
		counts[v^flipped]++
	}
	return bitstring.FromCounts(n, counts)
}

// BenchmarkBuildStateGraph measures the shipped edge-discovery engine
// (ball walk or pair scan, see edgescan.go). Compare with
// BenchmarkBuildStateGraphBrute for the speedup over the seed's O(V²)
// scan. The clustered row is the counts-large corpus (V ≈ 5.4×10⁴,
// E ≈ 7.8×10⁶ on the ball walk): its hits bunch around eight centres,
// which the uniform rows never do. The n10 rows build the near-complete
// qaoa-fleet graph (see BenchmarkStateGraphStep) on each representation.
// The n32 row is a register wider than sphereMaxWidth, which only the
// pair scan serves.
func BenchmarkBuildStateGraph(b *testing.B) {
	for _, c := range benchGraphConfigs {
		b.Run(fmt.Sprintf("V%d/lambda%g", c.v, c.lambda), func(b *testing.B) {
			benchBuild(b, benchGraphDist(c.v), c.lambda, c.strat)
		})
	}
	// The million-vertex track: V=10⁵ and V=10⁶ corpora through the
	// partition-sharded discovery engine (the ROADMAP scaling row).
	for _, c := range benchScaleConfigs {
		b.Run(c.name, func(b *testing.B) {
			benchBuild(b, benchScaleDist(c.n, c.v), c.lambda, scanAuto)
		})
	}
	for _, rep := range stepReps {
		b.Run("clustered/n20/c8/lambda1.5/"+rep.name, func(b *testing.B) {
			benchBuild(b, benchClusterDist(20, 8, 1_000_000, 1.5), 1.5, rep.strat)
		})
	}
	for _, rep := range stepReps {
		b.Run("n10/V1000/lambda5/"+rep.name, func(b *testing.B) {
			benchBuild(b, benchScaleDist(10, 1000), 5, rep.strat)
		})
	}
	b.Run("n32/V4096/lambda1", func(b *testing.B) {
		benchBuild(b, benchScaleDist(32, 4096), 1, scanAuto)
	})
}

func benchBuild(b *testing.B, raw *bitstring.Dist, lambda float64, strat scanStrategy) {
	b.ReportAllocs()
	b.ResetTimer()
	var edges int
	for i := 0; i < b.N; i++ {
		g, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: lambda}, 0.05, 0, strat)
		if err != nil {
			b.Fatal(err)
		}
		edges = g.NumEdges()
	}
	b.ReportMetric(float64(edges), "edges")
}

// BenchmarkBuildStateGraphBrute is the seed's serial O(V²) pairwise scan
// (bruteScanEdges), the reference the acceptance criterion compares
// against.
func BenchmarkBuildStateGraphBrute(b *testing.B) {
	for _, c := range benchGraphConfigs {
		b.Run(fmt.Sprintf("V%d/lambda%g", c.v, c.lambda), func(b *testing.B) {
			raw := benchGraphDist(c.v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := buildStateGraphBrute(raw, PoissonEdges{Lambda: c.lambda}, 0.05); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchScaleConfigs are the million-vertex-track corpora: register
// widths chosen so the requested support fits with realistic density
// (V=10⁵ at n=20 is ~10% of the value space, V=10⁶ at n=26 ~1.5%), λ
// chosen so the effective radius stays in sphere-walk territory.
var benchScaleConfigs = []struct {
	name   string
	n, v   int
	lambda float64
}{
	{"V1e5", 20, 1e5, 1},
	{"V1e6", 26, 1e6, 0.8},
}

// benchScaleDist draws v distinct outcomes uniformly over n qubits.
func benchScaleDist(n, v int) *bitstring.Dist {
	rng := mathx.NewRNG(97)
	counts := make(map[bitstring.BitString]float64, v)
	for len(counts) < v {
		counts[bitstring.BitString(rng.Uint64()&(1<<uint(n)-1))] += float64(rng.Intn(20) + 1)
	}
	return bitstring.FromCounts(n, counts)
}

// BenchmarkMitigate is the end-to-end row (graph build + 20 flow
// iterations + snapshot) at scale. V1e6 additionally gates an absolute
// wall-clock budget (mitigate_v1e6_seconds) — the "mitigable in
// seconds" acceptance criterion.
func BenchmarkMitigate(b *testing.B) {
	for _, c := range benchScaleConfigs {
		b.Run(c.name, func(b *testing.B) {
			raw := benchScaleDist(c.n, c.v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MitigateCtx(context.Background(), raw, c.lambda, NewOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStateGraphStep measures one reclassification iteration on a
// warm graph; allocs/op must report 0 (scratch reuse, pinned by
// TestStepAllocationFree). Every timed Step starts from the same counts:
// thousands of Step(0.5) calls on one graph drive the drained vertices'
// counts through the subnormal range, where each flow costs many times
// more, so without the reset ns/op would depend on b.N — that is, on
// -benchtime and machine speed. The O(V) reset is timed with the step.
//
// The clustered row is the counts-large corpus of
// BenchmarkBuildStateGraph. The n10 rows are the near-complete graphs
// that dominate qaoa-fleet: V = 1000 of the 1024 strings on 10 qubits at
// λ = 5 (E ≈ 2×10⁵), on CSR rows and on the spectrum, forced through the
// build's seam.
func BenchmarkStateGraphStep(b *testing.B) {
	for _, c := range benchGraphConfigs {
		b.Run(fmt.Sprintf("V%d/lambda%g", c.v, c.lambda), func(b *testing.B) {
			benchStep(b, benchGraphDist(c.v), c.lambda, c.strat)
		})
	}
	for _, rep := range stepReps {
		b.Run("clustered/n20/c8/lambda1.5/"+rep.name, func(b *testing.B) {
			benchStep(b, benchClusterDist(20, 8, 1_000_000, 1.5), 1.5, rep.strat)
		})
	}
	for _, rep := range stepReps {
		b.Run("n10/V1000/lambda5/"+rep.name, func(b *testing.B) {
			benchStep(b, benchScaleDist(10, 1000), 5, rep.strat)
		})
	}
}

func benchStep(b *testing.B, raw *bitstring.Dist, lambda float64, strat scanStrategy) {
	g, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: lambda}, 0.05, 0, strat)
	if err != nil {
		b.Fatal(err)
	}
	g.Step(1) // warm the scratch
	init, total := append([]node(nil), g.nodes...), g.total
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(g.nodes, init)
		g.total = total
		g.Step(0.5)
	}
}

// BenchmarkStateGraphWHT times one n = 20 transform, the kernel of a
// spectrum step, on one transform worker (no fan-out), under each
// kernel: its avx2/portable ratio is gated (BENCH_core.json), so a host
// that silently falls back to the Go body fails the gate. The scaling
// by 2⁻¹⁰, exact, keeps the repeated transforms orthonormal, so the
// entries neither overflow nor drift into the subnormal range.
func BenchmarkStateGraphWHT(b *testing.B) {
	const n = 20
	for _, k := range whtKernels {
		b.Run(fmt.Sprintf("n%d/%s", n, k.name), func(b *testing.B) {
			useWHTKernel(b, k.avx2)
			sp := newSpectrum(n, 1)
			sp.khat = make([]float64, n+1)
			for j := range sp.khat {
				sp.khat[j] = 0x1p-10
			}
			sp.segmentKhat()
			rng := mathx.NewRNG(7)
			for y := range sp.buf {
				sp.buf[y] = rng.Float64() - 0.5
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.wht(context.Background(), true)
			}
		})
	}
}

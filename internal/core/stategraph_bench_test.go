package core

import (
	"context"
	"fmt"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
)

// benchGraphConfigs spans the regimes the figure corpus hits: moderate
// and large vertex counts, tight and loose Poisson radii.
var benchGraphConfigs = []struct {
	v      int
	lambda float64
}{
	{512, 1},
	{4096, 1},
	{4096, 2},
}

// benchGraphDist draws v distinct outcomes uniformly over 16 qubits —
// the widest weight spread, i.e. the least favorable case for the
// popcount-bucket window.
func benchGraphDist(v int) *bitstring.Dist {
	const n = 16
	rng := mathx.NewRNG(97)
	d := bitstring.NewDist(n)
	for d.Support() < v {
		d.Add(bitstring.BitString(rng.Intn(1<<n)), float64(rng.Intn(20)+1))
	}
	return d
}

// BenchmarkBuildStateGraph measures the shipped edge-discovery engine
// (bucketed / ball-walk, see edgescan.go). Compare with
// BenchmarkBuildStateGraphBrute for the speedup over the seed's O(V²)
// scan.
func BenchmarkBuildStateGraph(b *testing.B) {
	for _, c := range benchGraphConfigs {
		b.Run(fmt.Sprintf("V%d/lambda%g", c.v, c.lambda), func(b *testing.B) {
			benchBuild(b, benchGraphDist(c.v), c.lambda)
		})
	}
	// The million-vertex track: V=10⁵ and V=10⁶ corpora through the
	// partition-sharded discovery engine (the ROADMAP scaling row).
	for _, c := range benchScaleConfigs {
		b.Run(c.name, func(b *testing.B) {
			benchBuild(b, benchScaleDist(c.n, c.v), c.lambda)
		})
	}
}

func benchBuild(b *testing.B, raw *bitstring.Dist, lambda float64) {
	b.ReportAllocs()
	b.ResetTimer()
	var edges int
	for i := 0; i < b.N; i++ {
		g, err := BuildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: lambda}, 0.05, 0)
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
	d := bitstring.NewDistCap(n, v)
	for d.Support() < v {
		d.Add(bitstring.BitString(rng.Uint64()&(1<<uint(n)-1)), float64(rng.Intn(20)+1))
	}
	return d
}

// BenchmarkMitigate is the end-to-end row (graph build + 20 flow
// iterations + snapshot) at scale. The V1e5_topk8 variant runs the same
// corpus through the approximate mode; its quotient against V1e5 is the
// mitigate_topk_speedup_v1e5 ratio bench-gate tracks. V1e6 additionally
// gates an absolute wall-clock budget (mitigate_v1e6_seconds) — the
// "mitigable in seconds" acceptance criterion.
func BenchmarkMitigate(b *testing.B) {
	cases := []struct {
		name   string
		n, v   int
		lambda float64
		topK   int
	}{
		{"V1e5", 20, 1e5, 1, 0},
		{"V1e5_topk8", 20, 1e5, 1, 8},
		{"V1e6", 26, 1e6, 0.8, 0},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			raw := benchScaleDist(c.n, c.v)
			opts := NewOptions()
			opts.TopK = c.topK
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MitigateCtx(context.Background(), raw, c.lambda, opts); err != nil {
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
func BenchmarkStateGraphStep(b *testing.B) {
	for _, c := range benchGraphConfigs {
		b.Run(fmt.Sprintf("V%d/lambda%g", c.v, c.lambda), func(b *testing.B) {
			raw := benchGraphDist(c.v)
			g, err := BuildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: c.lambda}, 0.05, 0)
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
		})
	}
}

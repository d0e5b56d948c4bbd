package core

import (
	"context"
	"fmt"
	"math/bits"
	"testing"

	"qbeep/internal/mathx"
	"qbeep/internal/testutil"
)

// whtStageLoop is the stage-by-stage transform the blocked one
// replaced: for h = 1, 2, 4, ..., the span-h butterflies
// (a, b) → (a+b, a−b) over all of x. It is the oracle the blocked
// transform must match bit for bit.
func whtStageLoop(x []float64) {
	for h := 1; h < len(x); h *= 2 {
		for i := 0; i+2*h <= len(x); i += 2 * h {
			lo, hi := x[i:i+h], x[i+h:i+2*h]
			for p, a := range lo {
				b := hi[p]
				lo[p], hi[p] = a+b, a-b
			}
		}
	}
}

// whtKernels are the two transform kernels the tests and benchmarks run
// under: the AVX2 kernel, where the host has it, and the portable Go
// body of whtStages.
var whtKernels = []struct {
	name string
	avx2 bool
}{{"avx2", true}, {"portable", false}}

// hostAVX2 is the kernel choice made at init, before any test forces it.
var hostAVX2 = whtAVX2

// useWHTKernel is the test seam that forces a transform kernel: it sets
// whtAVX2 for the rest of tb and restores the host's choice after. On a
// host without the AVX2 kernel, asking for it skips tb.
func useWHTKernel(tb testing.TB, avx2 bool) {
	if avx2 && !hostAVX2 {
		tb.Skip("no AVX2 kernel on this host (not amd64, no AVX2, or the OS does not save YMM state): only the portable path runs")
	}
	whtAVX2 = avx2
	tb.Cleanup(func() { whtAVX2 = hostAVX2 })
}

// TestWHTMatchesStageLoop pins the blocked radix-4 transform to the
// stage loop bit for bit, with and without the folded ŵ/2ⁿ scaling (a
// random weight-indexed vector standing in for ŵ/2ⁿ), at every
// width up to spectrumMaxWidth and every worker count: the low block
// stages, the column-chunk stages and the shard split must not change a
// single rounding, under either kernel. The odd widths end on the Go
// radix-2 stage.
func TestWHTMatchesStageLoop(t *testing.T) {
	for _, k := range whtKernels {
		t.Run(k.name, func(t *testing.T) {
			useWHTKernel(t, k.avx2)
			testWHTMatchesStageLoop(t)
		})
	}
}

func testWHTMatchesStageLoop(t *testing.T) {
	rng := mathx.NewRNG(5)
	for n := 1; n <= spectrumMaxWidth; n++ {
		in := make([]float64, 1<<n)
		for i := range in {
			in[i] = rng.Float64() - 0.25
		}
		scale := make([]float64, n+1)
		for j := range scale {
			scale[j] = rng.Float64() + 0.5
		}
		want := append([]float64(nil), in...)
		whtStageLoop(want)
		wantScaled := append([]float64(nil), want...)
		for y := range wantScaled {
			wantScaled[y] *= scale[bits.OnesCount64(uint64(y))]
		}
		for _, w := range testutil.WorkerMatrix(t) {
			sp := newSpectrum(n, w)
			sp.khat = scale
			sp.segmentKhat()
			for _, c := range []struct {
				scaled bool
				want   []float64
			}{{false, want}, {true, wantScaled}} {
				copy(sp.buf, in)
				sp.wht(context.Background(), c.scaled)
				for y := range sp.buf {
					if sp.buf[y] != c.want[y] {
						t.Fatalf("n=%d workers=%d scaled=%v: entry %d = %v, stage loop %v",
							n, w, c.scaled, y, sp.buf[y], c.want[y])
					}
				}
			}
		}
	}
}

// TestWHTShards pins the transform's fan-out: one shard per block at
// most, none at or below one block, where the transform runs inline.
func TestWHTShards(t *testing.T) {
	for _, c := range []struct{ n, workers, shards int }{
		{10, 4, 0}, {12, 2, 0}, {13, 4, 2}, {16, 2, 2}, {20, 1, 1}, {20, 3, 3},
	} {
		sp := newSpectrum(c.n, c.workers)
		got := 0
		if sp.shards != nil {
			got = sp.shards.Len()
		}
		if got != c.shards {
			t.Errorf("%s: %d shards, want %d", fmt.Sprintf("n=%d workers=%d", c.n, c.workers), got, c.shards)
		}
	}
}

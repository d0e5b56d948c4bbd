package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/obs"
	"qbeep/internal/testutil"
	"qbeep/internal/transpile"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// watchIterations installs a span sink for the rest of the test that
// hands fn every "core.mitigate.iter" span, one per flow iteration in
// round order: the trace is where per-iteration telemetry lives.
func watchIterations(t *testing.T, fn func(obs.SpanEvent)) {
	t.Helper()
	obs.SetSpanSink(obs.SinkFunc(func(e obs.SpanEvent) {
		if e.Name == "core.mitigate.iter" {
			fn(e)
		}
	}))
	t.Cleanup(func() { obs.SetSpanSink(nil) })
}

// spanAttr returns the value of the span attribute key, nil when absent.
func spanAttr(e obs.SpanEvent, key string) any {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

func testTranspiled(t *testing.T) (*transpile.Result, *device.Backend) {
	t.Helper()
	b, err := device.ByName("eldorado")
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("ghz", 5).H(0).CX(0, 1).CX(1, 2).CX(2, 3).CX(3, 4).MeasureAll()
	res, err := transpile.TranspileCtx(context.Background(), c, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, b
}

func TestEstimateLambdaPositive(t *testing.T) {
	res, b := testTranspiled(t)
	lb, err := EstimateLambda(res, b)
	if err != nil {
		t.Fatal(err)
	}
	if lb.T1 <= 0 || lb.T2 <= 0 || lb.Gates <= 0 {
		t.Errorf("all terms should be positive: %+v", lb)
	}
	if lb.Lambda() != lb.T1+lb.T2+lb.Gates {
		t.Error("Lambda should sum the terms")
	}
	if lb.Time != res.Time {
		t.Error("Time should echo the schedule")
	}
}

func TestEstimateLambdaErrors(t *testing.T) {
	_, b := testTranspiled(t)
	if _, err := EstimateLambda(nil, b); err == nil {
		t.Error("nil result should error")
	}
	res, _ := testTranspiled(t)
	if _, err := EstimateLambda(res, nil); err == nil {
		t.Error("nil backend should error")
	}
}

// estimateLambdaFor transpiles c onto b and evaluates Eq. 2.
func estimateLambdaFor(c *circuit.Circuit, b *device.Backend) (LambdaBreakdown, error) {
	res, err := transpile.TranspileCtx(context.Background(), c, b, nil)
	if err != nil {
		return LambdaBreakdown{}, err
	}
	return EstimateLambda(res, b)
}

func TestEstimateLambdaGrowsWithDepth(t *testing.T) {
	b, _ := device.ByName("eldorado")
	shallow := circuit.New("s", 4).H(0).CX(0, 1)
	deep := circuit.New("d", 4)
	for i := 0; i < 20; i++ {
		deep.H(0).CX(0, 1).CX(1, 2).CX(2, 3)
	}
	lbS, err := estimateLambdaFor(shallow, b)
	if err != nil {
		t.Fatal(err)
	}
	lbD, err := estimateLambdaFor(deep, b)
	if err != nil {
		t.Fatal(err)
	}
	if lbD.Lambda() <= lbS.Lambda() {
		t.Errorf("λ should grow with depth: %v vs %v", lbD.Lambda(), lbS.Lambda())
	}
}

func TestEstimateLambdaWorseMachineHigher(t *testing.T) {
	good, _ := device.ByName("galway")  // quality 0.7
	bad, _ := device.ByName("nairobi2") // quality 1.8
	c := circuit.New("chain", 5).H(0).CX(0, 1).CX(1, 2).CX(2, 3).CX(3, 4)
	lbG, err := estimateLambdaFor(c, good)
	if err != nil {
		t.Fatal(err)
	}
	lbB, err := estimateLambdaFor(c, bad)
	if err != nil {
		t.Fatal(err)
	}
	if lbB.Gates <= lbG.Gates {
		t.Errorf("worse machine should have higher gate term: %v vs %v", lbB.Gates, lbG.Gates)
	}
}

func TestPoissonEdgesWeighting(t *testing.T) {
	p := PoissonEdges{Lambda: 2}
	if !approx(p.Weight(2), mathx.Poisson{Lambda: 2}.PMF(2), 1e-15) {
		t.Error("weight should be the Poisson pmf")
	}
}

func TestInverseDistanceEdges(t *testing.T) {
	w := InverseDistanceEdges{}
	if w.Weight(1) != 0.5 || w.Weight(2) != 0.25 {
		t.Errorf("weights: %v %v", w.Weight(1), w.Weight(2))
	}
	if w.Weight(-1) != 0 {
		t.Error("negative distance should weigh 0")
	}
	if w.Weight(3) != 0 {
		t.Error("HAMMER's kernel should zero the third shell")
	}
	wide := halvingEdges{maxD: 6}
	if wide.Weight(3) != 0.125 || wide.Weight(7) != 0 {
		t.Errorf("halvingEdges{6}: Weight(3) = %v, Weight(7) = %v", wide.Weight(3), wide.Weight(7))
	}
}

func TestBuildStateGraphValidation(t *testing.T) {
	if _, err := BuildStateGraphCtx(context.Background(), nil, PoissonEdges{Lambda: 1}, 0.05, 0); err == nil {
		t.Error("nil counts should error")
	}
	d := bitstring.NewDist(3)
	if _, err := BuildStateGraphCtx(context.Background(), d, PoissonEdges{Lambda: 1}, 0.05, 0); err == nil {
		t.Error("empty counts should error")
	}
	d.Add(0, 1)
	if _, err := BuildStateGraphCtx(context.Background(), d, PoissonEdges{Lambda: 1}, 0, 0); err == nil {
		t.Error("zero epsilon should error")
	}
	if _, err := BuildStateGraphCtx(context.Background(), d, nil, 0.05, 0); err == nil {
		t.Error("nil weighter should error")
	}
}

func TestStateGraphEdges(t *testing.T) {
	// Three observed strings: 000 (dominant), 001 (distance 1), 111
	// (distance 3 from 000, 2 from 001).
	d := bitstring.NewDist(3)
	d.Add(0b000, 90)
	d.Add(0b001, 8)
	d.Add(0b111, 2)
	g, err := BuildStateGraphCtx(context.Background(), d, PoissonEdges{Lambda: 1}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Errorf("vertices %d", g.NumVertices())
	}
	// Poisson(1): PMF(1)=.368, PMF(2)=.184, PMF(3)=.061 — all above 0.05,
	// so the graph is complete on 3 vertices.
	if g.NumEdges() != 3 {
		t.Errorf("edges %d want 3", g.NumEdges())
	}
	// With a tighter threshold the distance-3 edge drops.
	g2, _ := BuildStateGraphCtx(context.Background(), d, PoissonEdges{Lambda: 1}, 0.1, 0)
	if g2.NumEdges() != 2 {
		t.Errorf("edges %d want 2 at eps=0.1", g2.NumEdges())
	}
}

func TestStepMovesMassTowardDominant(t *testing.T) {
	d := bitstring.NewDist(4)
	d.Add(0b0000, 600)
	d.Add(0b0001, 100)
	d.Add(0b0010, 100)
	d.Add(0b0100, 100)
	d.Add(0b1000, 100)
	g, err := BuildStateGraphCtx(context.Background(), d, PoissonEdges{Lambda: 1}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := g.Dist().Prob(0)
	g.Step(1)
	after := g.Dist().Prob(0)
	if after <= before {
		t.Errorf("dominant mass should grow: %v -> %v", before, after)
	}
}

func TestStepPreservesNonNegativity(t *testing.T) {
	f := func(c0, c1, c2 uint8, etaRaw uint8) bool {
		d := bitstring.NewDist(3)
		d.Add(0b000, float64(c0)+1)
		d.Add(0b001, float64(c1))
		d.Add(0b011, float64(c2))
		g, err := BuildStateGraphCtx(context.Background(), d, PoissonEdges{Lambda: 1.5}, 0.05, 0)
		if err != nil {
			return false
		}
		eta := float64(etaRaw%10)/10 + 0.1
		for i := 0; i < 5; i++ {
			g.Step(eta)
		}
		out := g.Dist()
		ok := true
		out.Each(func(_ bitstring.BitString, cnt float64) {
			if cnt < 0 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMitigateImprovesBVStyleCounts(t *testing.T) {
	// Synthetic BV-like counts: true answer 10110, errors Poisson-clustered
	// at distance ~1.5 around it.
	const n = 5
	truth := bitstring.BitString(0b10110)
	rng := mathx.NewRNG(17)
	raw := bitstring.NewDist(n)
	pois := mathx.Poisson{Lambda: 1.2}
	for shot := 0; shot < 2000; shot++ {
		v := truth
		k := pois.Sample(rng.Float64)
		for i := 0; i < k; i++ {
			v = v.FlipBit(rng.Intn(n))
		}
		raw.Add(v, 1)
	}
	ideal := bitstring.NewDist(n)
	ideal.Add(truth, 1)

	before := bitstring.Fidelity(ideal, raw)
	out, err := MitigateCtx(context.Background(), raw, 1.2, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	after := bitstring.Fidelity(ideal, out)
	if after <= before {
		t.Errorf("mitigation should improve fidelity: %v -> %v", before, after)
	}
	if !approx(out.Total(), raw.Total(), 1e-6) {
		t.Errorf("total mass changed: %v -> %v", raw.Total(), out.Total())
	}
}

func TestMitigateTrackedTrace(t *testing.T) {
	raw := bitstring.NewDist(3)
	raw.Add(0b000, 50)
	raw.Add(0b001, 20)
	raw.Add(0b010, 20)
	raw.Add(0b111, 10)
	ideal := bitstring.NewDist(3)
	ideal.Add(0b000, 1)
	opts := NewOptions()
	out, trace, err := MitigateTrackedCtx(context.Background(), raw, 1, opts, ideal)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != opts.Iterations+1 {
		t.Fatalf("trace length %d want %d", len(trace), opts.Iterations+1)
	}
	if trace[len(trace)-1] < trace[0] {
		t.Errorf("final fidelity %v below initial %v", trace[len(trace)-1], trace[0])
	}
	if !approx(bitstring.Fidelity(ideal, out), trace[len(trace)-1], 1e-9) {
		t.Error("final trace entry should match output fidelity")
	}
	if _, _, err := MitigateTrackedCtx(context.Background(), raw, 1, opts, nil); err == nil {
		t.Error("nil ideal should error")
	}
}

func TestMitigateValidation(t *testing.T) {
	raw := bitstring.NewDist(3)
	raw.Add(0, 10)
	if _, err := MitigateCtx(context.Background(), raw, -1, NewOptions()); err == nil {
		t.Error("negative lambda should error")
	}
	bad := NewOptions()
	bad.Iterations = 0
	if _, err := MitigateCtx(context.Background(), raw, 1, bad); err == nil {
		t.Error("zero iterations should error")
	}
	bad = NewOptions()
	bad.Epsilon = 1.5
	if _, err := MitigateCtx(context.Background(), raw, 1, bad); err == nil {
		t.Error("bad epsilon should error")
	}
	bad = NewOptions()
	bad.ConvergeTol = -0.01
	if _, err := MitigateCtx(context.Background(), raw, 1, bad); err == nil {
		t.Error("negative converge tolerance should error")
	}
	bad = NewOptions()
	bad.ConvergeTol = math.NaN()
	if _, err := MitigateCtx(context.Background(), raw, 1, bad); err == nil {
		t.Error("NaN converge tolerance should error")
	}
	ok := NewOptions()
	ok.ConvergeTol = 0
	if _, err := MitigateCtx(context.Background(), raw, 1, ok); err != nil {
		t.Errorf("zero converge tolerance is the exact default: %v", err)
	}
	if _, err := MitigateCtx(context.Background(), bitstring.NewDist(3), 1, NewOptions()); err == nil {
		t.Error("empty counts should error")
	}
}

// TestMitigateCtxCancelled: a cancelled ctx stops the flow iteration
// before the next round and surfaces ctx's error, both when it arrives
// cancelled and when it is cancelled mid-run.
func TestMitigateCtxCancelled(t *testing.T) {
	raw := bitstring.NewDist(3)
	raw.Add(0b101, 90)
	raw.Add(0b100, 10)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MitigateCtx(dead, raw, 1, NewOptions()); !errors.Is(err, context.Canceled) {
		t.Errorf("MitigateCtx on a cancelled ctx: err = %v", err)
	}
	if _, _, err := MitigateTrackedCtx(dead, raw, 1, NewOptions(), raw); !errors.Is(err, context.Canceled) {
		t.Errorf("MitigateTrackedCtx on a cancelled ctx: err = %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	watchIterations(t, func(obs.SpanEvent) {
		rounds++
		if rounds == 2 {
			cancel()
		}
	})
	if _, err := MitigateCtx(ctx, raw, 1, NewOptions()); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-run cancel: err = %v", err)
	}
	if rounds != 2 {
		t.Errorf("ran %d rounds after cancelling in round 2", rounds)
	}
}

// TestBuildStateGraphCancelled: a cancelled ctx fails the edge scan, on
// the serial path and in every parallel scan task, so neither the build
// nor MitigateCtx hands back a graph missing a task's edges.
func TestBuildStateGraphCancelled(t *testing.T) {
	raw := poissonCounts(12, 0b101101011010, 2, 20000, 3)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range append([]int{1}, testutil.WorkerMatrix(t)...) {
		if _, err := BuildStateGraphCtx(dead, raw, PoissonEdges{Lambda: 2}, 0.05, w); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d BuildStateGraphCtx: err = %v, want context.Canceled", w, err)
		}
		if _, _, err := mitigateCtx(dead, raw, 2, NewOptions(), nil, w, scanAuto); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d MitigateCtx: err = %v, want context.Canceled", w, err)
		}
	}
}

// TestBuildStateGraphDeadlineStopsMidRun: a deadline that expires while
// the edge scan runs stops the build, serial or sharded, well before the
// uncancelled build would have finished.
func TestBuildStateGraphDeadlineStopsMidRun(t *testing.T) {
	raw := benchScaleDist(20, 50000)
	w := PoissonEdges{Lambda: 1}
	for _, workers := range []int{1, 2} {
		start := time.Now()
		if _, err := BuildStateGraphCtx(context.Background(), raw, w, 0.05, workers); err != nil {
			t.Fatal(err)
		}
		full := time.Since(start)
		ctx, cancel := context.WithTimeout(context.Background(), full/5)
		start = time.Now()
		_, err := BuildStateGraphCtx(ctx, raw, w, 0.05, workers)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: err %v after %v, want context.DeadlineExceeded (uncancelled build: %v)", workers, err, elapsed, full)
		}
		if elapsed > full/2 {
			t.Fatalf("workers=%d: cancelled build took %v, want < %v (uncancelled build: %v)", workers, elapsed, full/2, full)
		}
		t.Logf("workers=%d: uncancelled %v, cancelled %v", workers, full, elapsed)
	}
}

func TestMitigateSingleOutcomeIsStable(t *testing.T) {
	raw := bitstring.NewDist(4)
	raw.Add(0b1010, 100)
	out, err := MitigateCtx(context.Background(), raw, 1, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(out.Prob(0b1010), 1, 1e-12) {
		t.Errorf("single outcome should persist: %v", out.StringCounts())
	}
}

func TestMitigateZeroLambdaNoEdges(t *testing.T) {
	// λ=0 ⇒ point mass at distance 0 ⇒ no edges ⇒ identity mitigation.
	raw := bitstring.NewDist(3)
	raw.Add(0b000, 60)
	raw.Add(0b001, 40)
	out, err := MitigateCtx(context.Background(), raw, 0, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if bitstring.TVD(raw, out) > 1e-12 {
		t.Errorf("λ=0 should be identity: %v", out.StringCounts())
	}
}

func TestMitigateHAMMERWeighterAblation(t *testing.T) {
	// Error cluster centered at distance 3 — HAMMER-style local weights
	// cannot reach it, Poisson(3) can.
	const n = 8
	truth := bitstring.BitString(0b10110100)
	raw := bitstring.NewDist(n)
	raw.Add(truth, 300)
	// Error mass concentrated on a shell at distance 3.
	rng := mathx.NewRNG(5)
	for i := 0; i < 700; i++ {
		v := truth
		flipped := map[int]bool{}
		for len(flipped) < 3 {
			q := rng.Intn(n)
			if !flipped[q] {
				flipped[q] = true
				v = v.FlipBit(q)
			}
		}
		raw.Add(v, 1)
	}
	ideal := bitstring.NewDist(n)
	ideal.Add(truth, 1)

	opts := NewOptions()
	poisOut, err := MitigateCtx(context.Background(), raw, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Weighter = InverseDistanceEdges{}
	hammerOut, err := MitigateCtx(context.Background(), raw, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	fp := bitstring.Fidelity(ideal, poisOut)
	fh := bitstring.Fidelity(ideal, hammerOut)
	if fp <= fh {
		t.Errorf("Poisson edges should beat local weights on distant clusters: %v vs %v", fp, fh)
	}
}

func TestGraphScalesWithEpsilon(t *testing.T) {
	rng := mathx.NewRNG(23)
	raw := bitstring.NewDist(10)
	for i := 0; i < 400; i++ {
		raw.Add(bitstring.BitString(rng.Intn(1024)), 1)
	}
	loose, err := BuildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: 2}, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := BuildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: 2}, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tight.NumEdges() >= loose.NumEdges() {
		t.Errorf("tighter epsilon should prune edges: %d vs %d",
			tight.NumEdges(), loose.NumEdges())
	}
}

func BenchmarkMitigate4096Shots10Q(b *testing.B) {
	rng := mathx.NewRNG(1)
	raw := bitstring.NewDist(10)
	truth := bitstring.BitString(0b1011010010)
	pois := mathx.Poisson{Lambda: 1.5}
	for i := 0; i < 4096; i++ {
		v := truth
		k := pois.Sample(rng.Float64)
		for j := 0; j < k; j++ {
			v = v.FlipBit(rng.Intn(10))
		}
		raw.Add(v, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MitigateCtx(context.Background(), raw, 1.5, NewOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

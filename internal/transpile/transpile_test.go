package transpile

import (
	"context"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/statevector"
)

// runFrom applies the circuit's gates one at a time to |init⟩.
func runFrom(t *testing.T, c *circuit.Circuit, init bitstring.BitString) *statevector.State {
	t.Helper()
	s, err := statevector.NewBasis(c.N, init)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range c.Gates {
		if err := s.Apply(g); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// equivalent checks that two circuits implement the same unitary action on
// a set of probe states (computational basis + a superposition probe),
// which catches both permutation and phase errors up to global phase.
func equivalent(t *testing.T, a, b *circuit.Circuit) {
	t.Helper()
	if a.N != b.N {
		t.Fatalf("width mismatch %d vs %d", a.N, b.N)
	}
	// Basis probes.
	for init := 0; init < 1<<uint(a.N); init++ {
		sa := runFrom(t, a, bitstring.BitString(init))
		sb := runFrom(t, b, bitstring.BitString(init))
		f, err := sa.FidelityWith(sb)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(f-1) > 1e-9 {
			t.Fatalf("basis %b: fidelity %v\nA:\n%s\nB:\n%s", init, f, a, b)
		}
	}
	// Superposition probe: H on every qubit first. Distinguishes relative
	// phases that basis probes cannot (e.g. CZ vs identity on basis states
	// with zero control).
	pre := circuit.New("probe", a.N)
	for q := 0; q < a.N; q++ {
		pre.H(q)
		pre.T(q)
	}
	probeA := pre.Clone()
	for _, g := range a.Gates {
		probeA.Append(g)
	}
	probeB := pre.Clone()
	for _, g := range b.Gates {
		probeB.Append(g)
	}
	sa, err := statevector.RunCtx(context.Background(), probeA)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := statevector.RunCtx(context.Background(), probeB)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := sa.FidelityWith(sb)
	if math.Abs(f-1) > 1e-9 {
		t.Fatalf("superposition probe fidelity %v\nA:\n%s\nB:\n%s", f, a, b)
	}
}

func TestDecomposeSingleQubitGates(t *testing.T) {
	kinds := []struct {
		name  string
		build func(c *circuit.Circuit)
	}{
		{"h", func(c *circuit.Circuit) { c.H(0) }},
		{"y", func(c *circuit.Circuit) { c.Y(0) }},
		{"z", func(c *circuit.Circuit) { c.Z(0) }},
		{"s", func(c *circuit.Circuit) { c.S(0) }},
		{"sdg", func(c *circuit.Circuit) { c.Sdg(0) }},
		{"t", func(c *circuit.Circuit) { c.T(0) }},
		{"tdg", func(c *circuit.Circuit) { c.Tdg(0) }},
		{"rx", func(c *circuit.Circuit) { c.RX(0.7, 0) }},
		{"ry", func(c *circuit.Circuit) { c.RY(-1.2, 0) }},
		{"u3", func(c *circuit.Circuit) { c.U3(0.4, 1.1, -0.6, 0) }},
	}
	for _, k := range kinds {
		orig := circuit.New(k.name, 1)
		k.build(orig)
		dec, err := Decompose(orig)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if !IsBasis(dec) {
			t.Fatalf("%s: not in basis: %s", k.name, dec)
		}
		equivalent(t, orig, dec)
	}
}

func TestDecomposeMultiQubitGates(t *testing.T) {
	builds := []struct {
		name  string
		build func(c *circuit.Circuit)
		n     int
	}{
		{"cz", func(c *circuit.Circuit) { c.CZ(0, 1) }, 2},
		{"swap", func(c *circuit.Circuit) { c.SWAP(0, 1) }, 2},
		{"ccx", func(c *circuit.Circuit) { c.CCX(0, 1, 2) }, 3},
		{"cswap", func(c *circuit.Circuit) { c.CSWAP(0, 1, 2) }, 3},
	}
	for _, k := range builds {
		orig := circuit.New(k.name, k.n)
		k.build(orig)
		dec, err := Decompose(orig)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if !IsBasis(dec) {
			t.Fatalf("%s: not in basis", k.name)
		}
		equivalent(t, orig, dec)
	}
}

func TestDecomposeDropsIdentity(t *testing.T) {
	dec, err := Decompose(circuit.New("i", 1).I(0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.GateCount() != 0 {
		t.Errorf("identity should vanish, got %d gates", dec.GateCount())
	}
}

func TestDecomposePreservesMeasure(t *testing.T) {
	dec, err := Decompose(circuit.New("m", 2).H(0).MeasureAll())
	if err != nil {
		t.Fatal(err)
	}
	if dec.CountKind(circuit.Measure) != 2 {
		t.Error("measurements lost")
	}
}

func TestFoldAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{math.Pi / 2, math.Pi / 2},
	}
	for _, c := range cases {
		if got := foldAngle(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("foldAngle(%v) = %v want %v", c.in, got, c.want)
		}
	}
}

func TestOptimizeCancelsPairs(t *testing.T) {
	c := circuit.New("cancel", 2).X(0).X(0).CX(0, 1).CX(0, 1).
		RZ(0.5, 1).RZ(-0.5, 1)
	opt, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if opt.GateCount() != 0 {
		t.Errorf("expected full cancellation, got %d gates: %s", opt.GateCount(), opt)
	}
}

func TestOptimizeMergesRZ(t *testing.T) {
	c := circuit.New("merge", 1).RZ(0.5, 0).RZ(0.25, 0)
	opt, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if opt.GateCount() != 1 || opt.Gates[0].Params[0] != 0.75 {
		t.Errorf("merge failed: %s", opt)
	}
}

func TestOptimizeRespectsInterveningGates(t *testing.T) {
	// An SX between the two X gates must block cancellation.
	c := circuit.New("blocked", 1).X(0).SX(0).X(0)
	opt, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if opt.GateCount() != 3 {
		t.Errorf("cancelled across barrier gate: %s", opt)
	}
	// A CX touching the qubit also blocks.
	c = circuit.New("blocked2", 2).X(0).CX(0, 1).X(0)
	opt, _ = Optimize(c)
	if opt.GateCount() != 3 {
		t.Errorf("cancelled across CX: %s", opt)
	}
	// CX pairs with different orientation must not cancel.
	c = circuit.New("orient", 2).CX(0, 1).CX(1, 0)
	opt, _ = Optimize(c)
	if opt.GateCount() != 2 {
		t.Errorf("cancelled misoriented CX pair: %s", opt)
	}
}

func TestOptimizePreservesSemantics(t *testing.T) {
	rng := mathx.NewRNG(31)
	for trial := 0; trial < 10; trial++ {
		c := circuit.New("rand", 3)
		for i := 0; i < 25; i++ {
			switch rng.Intn(4) {
			case 0:
				c.RZ(rng.Uniform(-3, 3), rng.Intn(3))
			case 1:
				c.X(rng.Intn(3))
			case 2:
				c.SX(rng.Intn(3))
			case 3:
				a := rng.Intn(3)
				b := (a + 1 + rng.Intn(2)) % 3
				c.CX(a, b)
			}
		}
		opt, err := Optimize(c)
		if err != nil {
			t.Fatal(err)
		}
		equivalent(t, c, opt)
		if opt.GateCount() > c.GateCount() {
			t.Error("optimize increased gate count")
		}
	}
}

func TestTrivialLayout(t *testing.T) {
	l := TrivialLayout(3)
	for i, p := range l {
		if p != i {
			t.Fatalf("layout %v", l)
		}
	}
	if err := l.validate(3); err != nil {
		t.Fatal(err)
	}
	if err := (Layout{0, 0}).validate(3); err == nil {
		t.Error("duplicate physical should error")
	}
	if err := (Layout{5}).validate(3); err == nil {
		t.Error("out-of-range physical should error")
	}
}

func TestGreedyLayoutValid(t *testing.T) {
	b, err := device.ByName("eldorado") // 3x4 grid
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("ghz", 5).H(0).CX(0, 1).CX(1, 2).CX(2, 3).CX(3, 4)
	dec, _ := Decompose(c)
	l, err := GreedyLayout(dec, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.validate(b.N()); err != nil {
		t.Fatal(err)
	}
	if len(l) != 5 {
		t.Fatalf("layout len %d", len(l))
	}
}

func TestGreedyLayoutDeterministic(t *testing.T) {
	b, _ := device.ByName("istanbul")
	c := circuit.New("ghz", 8).H(0)
	for q := 0; q < 7; q++ {
		c.CX(q, q+1)
	}
	dec, _ := Decompose(c)
	a1, err := GreedyLayout(dec, b)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := GreedyLayout(dec, b)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("layout not deterministic")
		}
	}
}

func TestGreedyLayoutTooWide(t *testing.T) {
	b, _ := device.ByName("auckland") // 5 qubits
	c := circuit.New("wide", 9).H(0)
	if _, err := GreedyLayout(c, b); err == nil {
		t.Error("oversized circuit should error")
	}
}

func TestRouteRequiresBasis(t *testing.T) {
	b, _ := device.ByName("carthage")
	c := circuit.New("h", 2).CCX(0, 1, 1) // also invalid, but basis check first
	c2 := circuit.New("raw", 3).CCX(0, 1, 2)
	if _, _, err := Route(c2, b, TrivialLayout(3)); err == nil {
		t.Error("non-basis circuit should be rejected")
	}
	_ = c
}

func TestRouteInsertsSwaps(t *testing.T) {
	b, _ := device.ByName("carthage") // linear(7)
	// CX between chain ends requires routing.
	c := circuit.New("far", 7).CX(0, 6)
	dec, _ := Decompose(c)
	routed, final, err := Route(dec, b, TrivialLayout(7))
	if err != nil {
		t.Fatal(err)
	}
	if routed.CountKind(circuit.CX) <= 1 {
		t.Errorf("expected swap insertion, CX count %d", routed.CountKind(circuit.CX))
	}
	// All emitted CX must respect the topology.
	for _, g := range routed.Gates {
		if g.Kind == circuit.CX && !b.Topology.Connected(g.Qubits[0], g.Qubits[1]) {
			t.Errorf("unrouted CX %v", g)
		}
	}
	if err := final.validate(b.N()); err != nil {
		t.Fatal(err)
	}
}

func TestRoutePreservesSemanticsOnLine(t *testing.T) {
	// Build GHZ(4) needing routing on a 4-qubit chain with layout reversing
	// qubit order, then verify the measured logical distribution matches.
	topo, _ := device.Linear(4)
	cal := device.GenerateCalibration(topo, device.SuperconductingProfile(), mathx.NewRNG(3))
	b := &device.Backend{Name: "test-line", Architecture: device.Superconducting,
		Topology: topo, Calibration: cal}
	c := circuit.New("ghz", 4).H(0).CX(0, 1).CX(0, 2).CX(0, 3)
	dec, _ := Decompose(c)
	layout := Layout{3, 2, 1, 0}
	routed, final, err := Route(dec, b, layout)
	if err != nil {
		t.Fatal(err)
	}
	s, err := statevector.RunCtx(context.Background(), routed)
	if err != nil {
		t.Fatal(err)
	}
	// Remap physical probabilities to logical.
	phys := map[uint64]float64{}
	for v, p := range probMap(s) {
		phys[v] = p
	}
	logical := LogicalDist(4, final, phys)
	if math.Abs(logical[0]-0.5) > 1e-9 || math.Abs(logical[15]-0.5) > 1e-9 {
		t.Errorf("GHZ through routing: %v", logical)
	}
}

func probMap(s *statevector.State) map[uint64]float64 {
	m := map[uint64]float64{}
	for i, p := range s.Probabilities() {
		if p > 1e-12 {
			m[uint64(i)] = p
		}
	}
	return m
}

func TestTranspileEndToEnd(t *testing.T) {
	b, _ := device.ByName("eldorado")
	c := circuit.New("adder-ish", 4).H(0).CCX(0, 1, 2).CX(1, 3).T(2).MeasureAll()
	res, err := TranspileCtx(context.Background(), c, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBasis(res.Circuit) {
		t.Error("transpiled circuit not in basis")
	}
	if res.Time <= 0 {
		t.Errorf("schedule time %v", res.Time)
	}
	if res.Circuit.N != b.N() {
		t.Errorf("output register %d want %d", res.Circuit.N, b.N())
	}
	for _, g := range res.Circuit.Gates {
		if g.Kind == circuit.CX && !b.Topology.Connected(g.Qubits[0], g.Qubits[1]) {
			t.Errorf("topology violation: %v", g)
		}
	}
	if res.GatesBefore <= 0 || res.GatesAfter <= 0 {
		t.Error("gate accounting missing")
	}
}

func TestScheduleTimeParallelGatesOverlap(t *testing.T) {
	b, _ := device.ByName("carthage")
	seq := circuit.New("seq", 7).X(0).X(0).X(0)
	par := circuit.New("par", 7).X(0).X(1).X(2)
	ts, err := ScheduleTime(seq, b)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := ScheduleTime(par, b)
	if err != nil {
		t.Fatal(err)
	}
	if tp >= ts {
		t.Errorf("parallel %v should beat sequential %v", tp, ts)
	}
}

func TestScheduleTimeMeasurement(t *testing.T) {
	b, _ := device.ByName("carthage")
	bare := circuit.New("bare", 7).X(0)
	meas := circuit.New("meas", 7).X(0).Measure(0)
	t1, _ := ScheduleTime(bare, b)
	t2, _ := ScheduleTime(meas, b)
	if t2 <= t1 {
		t.Error("measurement should add time")
	}
}

func TestLogicalDistTracesOutAncilla(t *testing.T) {
	// Physical register of 3, logical of 2 mapped to phys {2, 0}.
	phys := map[uint64]float64{
		0b101: 4, // phys2=1(log0=1), phys0=1(log1=1)
		0b001: 6, // phys0=1 -> log1=1
	}
	logical := LogicalDist(3, Layout{2, 0}, phys)
	if logical[0b11] != 4 || logical[0b10] != 6 {
		t.Errorf("logical = %v", logical)
	}
}

package circuit

import (
	"strings"
	"testing"
)

func TestKindStringAndArity(t *testing.T) {
	cases := []struct {
		k     Kind
		name  string
		arity int
		param int
	}{
		{H, "h", 1, 0},
		{CX, "cx", 2, 0},
		{CCX, "ccx", 3, 0},
		{RZ, "rz", 1, 1},
		{U3, "u3", 1, 3},
		{Measure, "measure", 1, 0},
		{Barrier, "barrier", 0, 0},
		{CSWAP, "cswap", 3, 0},
	}
	for _, c := range cases {
		if c.k.String() != c.name {
			t.Errorf("%v String = %q want %q", int(c.k), c.k.String(), c.name)
		}
		if c.k.Arity() != c.arity {
			t.Errorf("%s Arity = %d want %d", c.name, c.k.Arity(), c.arity)
		}
		if c.k.ParamCount() != c.param {
			t.Errorf("%s ParamCount = %d want %d", c.name, c.k.ParamCount(), c.param)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Error("unknown kind String")
	}
	if Measure.IsUnitary() || Barrier.IsUnitary() || !H.IsUnitary() {
		t.Error("IsUnitary wrong")
	}
}

func TestGateValidate(t *testing.T) {
	cases := []struct {
		g    Gate
		ok   bool
		name string
	}{
		{Gate{Kind: H, Qubits: []int{0}}, true, "h ok"},
		{Gate{Kind: H, Qubits: []int{0, 1}}, false, "h arity"},
		{Gate{Kind: CX, Qubits: []int{0, 1}}, true, "cx ok"},
		{Gate{Kind: CX, Qubits: []int{0, 0}}, false, "cx duplicate"},
		{Gate{Kind: CX, Qubits: []int{0, 5}}, false, "cx out of range"},
		{Gate{Kind: CX, Qubits: []int{-1, 1}}, false, "negative qubit"},
		{Gate{Kind: RZ, Qubits: []int{0}, Params: []float64{1.5}}, true, "rz ok"},
		{Gate{Kind: RZ, Qubits: []int{0}}, false, "rz missing param"},
		{Gate{Kind: H, Qubits: []int{0}, Params: []float64{1}}, false, "h spurious param"},
		{Gate{Kind: Barrier, Qubits: []int{0, 1, 2}}, true, "barrier ok"},
		{Gate{Kind: Barrier}, false, "barrier empty"},
		{Gate{Kind: U3, Qubits: []int{1}, Params: []float64{1, 2, 3}}, true, "u3 ok"},
	}
	for _, c := range cases {
		err := c.g.Validate(4)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestGateString(t *testing.T) {
	g := Gate{Kind: CX, Qubits: []int{0, 2}}
	if got := g.String(); got != "cx q[0],q[2]" {
		t.Errorf("String = %q", got)
	}
	g = Gate{Kind: RZ, Qubits: []int{1}, Params: []float64{0.5}}
	if got := g.String(); got != "rz(0.5) q[1]" {
		t.Errorf("String = %q", got)
	}
}

func TestBuilderHappyPath(t *testing.T) {
	c, err := New("bell", 2).H(0).CX(0, 1).MeasureAll().Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 4 {
		t.Errorf("gate count %d", len(c.Gates))
	}
	if c.GateCount() != 2 {
		t.Errorf("unitary count %d", c.GateCount())
	}
	if !c.HasMeasurement() {
		t.Error("HasMeasurement false")
	}
}

func TestBuilderErrorSticks(t *testing.T) {
	c := New("bad", 2).H(5).CX(0, 1)
	if c.Err() == nil {
		t.Fatal("expected sticky error")
	}
	if len(c.Gates) != 0 {
		t.Error("gates appended after error")
	}
	if _, err := c.Finalize(); err == nil {
		t.Error("Finalize should surface error")
	}
}

func TestNewZeroWidth(t *testing.T) {
	if _, err := New("zero", 0).Finalize(); err == nil {
		t.Error("zero width should error")
	}
}

func TestCounts(t *testing.T) {
	c := New("counts", 3).H(0).H(1).CX(0, 1).CCX(0, 1, 2).RZ(0.3, 2).MeasureAll()
	if got := c.CountKind(H); got != 2 {
		t.Errorf("CountKind(H) = %d", got)
	}
	if got := c.TwoQubitCount(); got != 2 {
		t.Errorf("TwoQubitCount = %d", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := New("orig", 2).H(0)
	d := c.Clone()
	d.X(1)
	if len(c.Gates) != 1 || len(d.Gates) != 2 {
		t.Error("clone shares gate slice")
	}
	d.Gates[0].Qubits[0] = 1
	if c.Gates[0].Qubits[0] != 0 {
		t.Error("clone shares qubit slices")
	}
}

func TestCircuitString(t *testing.T) {
	c := New("demo", 2).H(0).CX(0, 1)
	s := c.String()
	if !strings.Contains(s, "demo (2 qubits, 2 gates)") {
		t.Errorf("header missing: %q", s)
	}
	if !strings.Contains(s, "h q[0]") || !strings.Contains(s, "cx q[0],q[1]") {
		t.Errorf("gates missing: %q", s)
	}
}

func TestBarrierDefaultsToAllQubits(t *testing.T) {
	c := New("b", 3).Barrier()
	if len(c.Gates) != 1 || len(c.Gates[0].Qubits) != 3 {
		t.Fatalf("barrier gates = %v", c.Gates)
	}
}

func TestMeasureAll(t *testing.T) {
	c := New("m", 4).MeasureAll()
	if got := c.CountKind(Measure); got != 4 {
		t.Errorf("measure count %d", got)
	}
}

func TestFluentBuilderCoversAllGates(t *testing.T) {
	c := New("all", 4).
		I(0).X(0).Y(0).Z(0).H(0).S(0).Sdg(0).T(0).Tdg(0).SX(0).
		RX(0.1, 1).RY(0.2, 1).RZ(0.3, 1).U3(0.1, 0.2, 0.3, 1).
		CX(0, 1).CZ(1, 2).SWAP(2, 3).CCX(0, 1, 2).CSWAP(0, 1, 2).
		Measure(3)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Gates); got != 20 {
		t.Errorf("gate count %d want 20", got)
	}
	kinds := map[Kind]bool{}
	for _, g := range c.Gates {
		kinds[g.Kind] = true
	}
	for _, k := range []Kind{I, X, Y, Z, H, S, Sdg, T, Tdg, SX, RX, RY, RZ,
		U3, CX, CZ, SWAP, CCX, CSWAP, Measure} {
		if !kinds[k] {
			t.Errorf("builder missing %s", k)
		}
	}
}

package qasm

import (
	"context"
	"math"
	"strings"
	"testing"

	"qbeep/internal/algorithms"
	"qbeep/internal/circuit"
	"qbeep/internal/statevector"
)

func TestWriteBasic(t *testing.T) {
	c := circuit.New("bell", 2).H(0).CX(0, 1).MeasureAll()
	src, err := Write(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"OPENQASM 2.0;",
		"qreg q[2];",
		"creg c[2];",
		"h q[0];",
		"cx q[0],q[1];",
		"measure q[0] -> c[0];",
		"measure q[1] -> c[1];",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q in:\n%s", want, src)
		}
	}
}

func TestWriteParams(t *testing.T) {
	c := circuit.New("rot", 1).RZ(0.5, 0).U3(0.1, 0.2, 0.3, 0)
	src, err := Write(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "rz(0.5) q[0];") {
		t.Errorf("rz missing: %s", src)
	}
	if !strings.Contains(src, "u3(") {
		t.Errorf("u3 missing: %s", src)
	}
}

func TestWriteBrokenCircuit(t *testing.T) {
	if _, err := Write(circuit.New("bad", 1).H(5)); err == nil {
		t.Error("broken circuit should error")
	}
}

func TestRoundTripPreservesSemantics(t *testing.T) {
	builds := []func() *circuit.Circuit{
		func() *circuit.Circuit { return circuit.New("bell", 2).H(0).CX(0, 1) },
		func() *circuit.Circuit {
			return circuit.New("mixed", 3).H(0).T(1).Sdg(2).CCX(0, 1, 2).RY(0.4, 1).SWAP(0, 2)
		},
		func() *circuit.Circuit {
			return circuit.New("rot", 2).RX(1.2, 0).RZ(-0.7, 1).CZ(0, 1).U3(0.3, 0.2, 0.1, 0)
		},
	}
	for _, build := range builds {
		orig := build()
		src, err := Write(orig)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseCtx(context.Background(), src)
		if err != nil {
			t.Fatalf("parse failed: %v\n%s", err, src)
		}
		if back.N != orig.N {
			t.Fatalf("width %d vs %d", back.N, orig.N)
		}
		sa, err := statevector.RunCtx(context.Background(), orig)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := statevector.RunCtx(context.Background(), back)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := sa.FidelityWith(sb)
		if math.Abs(f-1) > 1e-9 {
			t.Errorf("%s: round-trip fidelity %v", orig.Name, f)
		}
	}
}

func TestRoundTripSuite(t *testing.T) {
	// Every QASMBench-style workload must serialize and re-parse.
	for _, e := range algorithms.Suite() {
		w, err := e.Build()
		if err != nil {
			t.Fatal(err)
		}
		src, err := Write(w.Circuit)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		back, err := ParseCtx(context.Background(), src)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if back.GateCount() != w.Circuit.GateCount() {
			t.Errorf("%s: gate count %d vs %d", e.Name, back.GateCount(), w.Circuit.GateCount())
		}
	}
}

func TestParsePiExpressions(t *testing.T) {
	src := `OPENQASM 2.0;
qreg q[1];
rz(pi) q[0];
rz(-pi/2) q[0];
rz(3*pi/4) q[0];
rz(0.25) q[0];
`
	c, err := ParseCtx(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{math.Pi, -math.Pi / 2, 3 * math.Pi / 4, 0.25}
	if len(c.Gates) != 4 {
		t.Fatalf("gates %d", len(c.Gates))
	}
	for i, g := range c.Gates {
		if math.Abs(g.Params[0]-want[i]) > 1e-12 {
			t.Errorf("gate %d angle %v want %v", i, g.Params[0], want[i])
		}
	}
}

func TestParseBarrierAndComments(t *testing.T) {
	src := `// my circuit
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0]; // trailing comment
barrier q[0],q[1],q[2];
cnot q[0],q[1];
measure q[2] -> c[2];
`
	c, err := ParseCtx(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "my circuit" {
		t.Errorf("name %q", c.Name)
	}
	if c.CountKind(circuit.Barrier) != 1 || c.CountKind(circuit.CX) != 1 {
		t.Errorf("structure: %s", c)
	}
	if c.CountKind(circuit.Measure) != 1 {
		t.Error("measure lost")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                           // no qreg
		"h q[0];",                    // gate before qreg
		"qreg q[2];\nfoo q[0];",      // unknown gate
		"qreg q[2];\nrz(bad) q[0];",  // bad angle
		"qreg q[2];\nqreg r[2];",     // duplicate qreg
		"qreg q[2];\nh q[7];",        // out of range
		"qreg q[x];",                 // bad size
		"qreg q[2];\nrz(pi q[0];",    // unbalanced paren
		"qreg q[2];\ncx q[0],q[0];",  // duplicate qubit
		"qreg q[2];\nrz(pi/0) q[0];", // zero divisor
		"qreg q[2];\nh q[0] q[1];",   // still fine? ensure parse path
	}
	for i, src := range cases[:10] {
		if _, err := ParseCtx(context.Background(), src); err == nil {
			t.Errorf("case %d should error: %q", i, src)
		}
	}
}

func TestParseAngle(t *testing.T) {
	cases := []struct {
		s    string
		want float64
		fail bool
	}{
		{"pi", math.Pi, false},
		{"-pi", -math.Pi, false},
		{"+pi/2", math.Pi / 2, false},
		{"2*pi", 2 * math.Pi, false},
		{"1.5", 1.5, false},
		{"-0.25", -0.25, false},
		{"", 0, true},
		{"tau", 0, true},
	}
	for _, c := range cases {
		got, err := parseAngle(c.s)
		if c.fail {
			if err == nil {
				t.Errorf("parseAngle(%q) should fail", c.s)
			}
			continue
		}
		if err != nil || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("parseAngle(%q) = %v, %v", c.s, got, err)
		}
	}
}

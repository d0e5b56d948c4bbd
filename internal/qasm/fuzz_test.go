package qasm

import (
	"context"
	"strings"
	"testing"
)

// FuzzParse hardens the OpenQASM parser against malformed input: it must
// never panic, and any program it accepts must re-serialize and re-parse
// to the same gate count (a parse/print fixed point).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
		"// name\nqreg q[3];\nrz(pi/2) q[1];\nbarrier q[0],q[1];\nmeasure q[2] -> c[2];\n",
		"qreg q[1];\nu3(0.1,0.2,0.3) q[0];",
		"qreg q[4];\nccx q[0],q[1],q[2];\nswap q[2],q[3];",
		"qreg q[2];\nrz(-3*pi/4) q[0];\ncnot q[1],q[0];",
		"qreg q[0];",
		"qreg q[",
		"h q[0];",
		";;;",
		"qreg q[2];\nrz() q[0];",
		"qreg q[2]; x q[1]; x q[1]; id q[0];",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseCtx(context.Background(), src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		out, err := Write(c)
		if err != nil {
			t.Fatalf("accepted program failed to serialize: %v", err)
		}
		back, err := ParseCtx(context.Background(), out)
		if err != nil {
			t.Fatalf("serialized program failed to re-parse: %v\n%s", err, out)
		}
		if back.GateCount() != c.GateCount() {
			t.Fatalf("gate count changed through round trip: %d vs %d", c.GateCount(), back.GateCount())
		}
		if !strings.Contains(out, "OPENQASM 2.0;") {
			t.Fatalf("serializer dropped the header")
		}
	})
}

// FuzzParseQASM layers structural invariants on top of FuzzParse's
// crash/round-trip check: any circuit the parser accepts must be valid
// under the circuit package's own rules (no construction error, every
// gate within register bounds), and Write must be a fixed point — the
// first serialization parses back to a byte-identical second one, so
// downstream caches can key on the text form.
func FuzzParseQASM(f *testing.F) {
	seeds := []string{
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n",
		"qreg q[2];\n// comment\nu2(0,pi) q[0];\ncz q[0],q[1];\n",
		"qreg q[5];\nrx(pi/8) q[4];\nry(-pi) q[3];\nbarrier q;\n",
		"qreg q[2];\ncreg c[2];\nx q;\nid q[1];\nsdg q[0];\ntdg q[1];",
		"qreg a[1];\nqreg b[1];\ncx a[0],b[0];",
		"qreg q[1];\nu1(2*pi/3) q[0];",
		"qreg q[9999999];",
		"qreg q[3];\nccx q[0],q[1],q[1];",
		"qreg q[2];\nswap q[0],q[0];",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseCtx(context.Background(), src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if cerr := c.Err(); cerr != nil {
			t.Fatalf("accepted circuit carries a construction error: %v", cerr)
		}
		for i, g := range c.Gates {
			if err := g.Validate(c.N); err != nil {
				t.Fatalf("accepted circuit has invalid gate %d: %v", i, err)
			}
		}
		out1, err := Write(c)
		if err != nil {
			t.Fatalf("accepted circuit failed to serialize: %v", err)
		}
		c2, err := ParseCtx(context.Background(), out1)
		if err != nil {
			t.Fatalf("serialized program failed to re-parse: %v\n%s", err, out1)
		}
		out2, err := Write(c2)
		if err != nil {
			t.Fatalf("re-parsed circuit failed to serialize: %v", err)
		}
		if out1 != out2 {
			t.Fatalf("Write is not a fixed point:\nfirst:\n%s\nsecond:\n%s", out1, out2)
		}
	})
}

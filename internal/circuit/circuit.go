package circuit

import (
	"fmt"
	"strings"
)

// Circuit is an ordered list of gates over an n-qubit register with a
// classical register of the same width. Builders append via the fluent
// helpers; a malformed append records the first error, which surfaces from
// Err/Finalize — so construction code stays linear, in the spirit of
// bytes.Buffer.
type Circuit struct {
	Name  string
	N     int
	Gates []Gate
	err   error
}

// New returns an empty circuit over n qubits.
func New(name string, n int) *Circuit {
	c := &Circuit{Name: name, N: n}
	if n <= 0 {
		c.err = fmt.Errorf("circuit: width %d must be positive", n)
	}
	return c
}

// Err returns the first construction error, if any.
func (c *Circuit) Err() error { return c.err }

// Append adds a gate after validating it. Invalid gates are dropped and
// recorded in Err.
func (c *Circuit) Append(g Gate) *Circuit {
	if c.err != nil {
		return c
	}
	if err := g.Validate(c.N); err != nil {
		c.err = fmt.Errorf("%w (gate %d)", err, len(c.Gates))
		return c
	}
	c.Gates = append(c.Gates, g)
	return c
}

func (c *Circuit) add(k Kind, params []float64, qubits ...int) *Circuit {
	return c.Append(Gate{Kind: k, Qubits: qubits, Params: params})
}

// The fluent builder vocabulary.

func (c *Circuit) I(q int) *Circuit   { return c.add(I, nil, q) }
func (c *Circuit) X(q int) *Circuit   { return c.add(X, nil, q) }
func (c *Circuit) Y(q int) *Circuit   { return c.add(Y, nil, q) }
func (c *Circuit) Z(q int) *Circuit   { return c.add(Z, nil, q) }
func (c *Circuit) H(q int) *Circuit   { return c.add(H, nil, q) }
func (c *Circuit) S(q int) *Circuit   { return c.add(S, nil, q) }
func (c *Circuit) Sdg(q int) *Circuit { return c.add(Sdg, nil, q) }
func (c *Circuit) T(q int) *Circuit   { return c.add(T, nil, q) }
func (c *Circuit) Tdg(q int) *Circuit { return c.add(Tdg, nil, q) }
func (c *Circuit) SX(q int) *Circuit  { return c.add(SX, nil, q) }
func (c *Circuit) RX(theta float64, q int) *Circuit {
	return c.add(RX, []float64{theta}, q)
}
func (c *Circuit) RY(theta float64, q int) *Circuit {
	return c.add(RY, []float64{theta}, q)
}
func (c *Circuit) RZ(phi float64, q int) *Circuit {
	return c.add(RZ, []float64{phi}, q)
}
func (c *Circuit) U3(theta, phi, lambda float64, q int) *Circuit {
	return c.add(U3, []float64{theta, phi, lambda}, q)
}
func (c *Circuit) CX(ctrl, tgt int) *Circuit    { return c.add(CX, nil, ctrl, tgt) }
func (c *Circuit) CZ(a, b int) *Circuit         { return c.add(CZ, nil, a, b) }
func (c *Circuit) SWAP(a, b int) *Circuit       { return c.add(SWAP, nil, a, b) }
func (c *Circuit) CCX(c1, c2, tgt int) *Circuit { return c.add(CCX, nil, c1, c2, tgt) }
func (c *Circuit) CSWAP(ctrl, a, b int) *Circuit {
	return c.add(CSWAP, nil, ctrl, a, b)
}
func (c *Circuit) Measure(q int) *Circuit { return c.add(Measure, nil, q) }

// MeasureAll appends a measurement on every qubit.
func (c *Circuit) MeasureAll() *Circuit {
	for q := 0; q < c.N; q++ {
		c.Measure(q)
	}
	return c
}

// Barrier appends a barrier over the given qubits (all qubits if none
// given).
func (c *Circuit) Barrier(qs ...int) *Circuit {
	if len(qs) == 0 {
		qs = make([]int, c.N)
		for i := range qs {
			qs[i] = i
		}
	}
	return c.add(Barrier, nil, qs...)
}

// Finalize returns the circuit and any accumulated construction error.
func (c *Circuit) Finalize() (*Circuit, error) {
	if c.err != nil {
		return nil, c.err
	}
	return c, nil
}

// Clone returns a deep copy of the circuit (error state included).
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{Name: c.Name, N: c.N, err: c.err}
	out.Gates = make([]Gate, len(c.Gates))
	for i, g := range c.Gates {
		out.Gates[i] = g.Clone()
	}
	return out
}

// GateCount returns the number of unitary gates (measurements and barriers
// excluded), the metric Fig. 4 plots EHD against.
func (c *Circuit) GateCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind.IsUnitary() {
			n++
		}
	}
	return n
}

// CountKind returns the number of gates of kind k.
func (c *Circuit) CountKind(k Kind) int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind == k {
			n++
		}
	}
	return n
}

// TwoQubitCount returns the number of 2+ qubit unitary gates.
func (c *Circuit) TwoQubitCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind.IsUnitary() && len(g.Qubits) >= 2 {
			n++
		}
	}
	return n
}

// HasMeasurement reports whether the circuit contains any measurement.
func (c *Circuit) HasMeasurement() bool {
	for _, g := range c.Gates {
		if g.Kind == Measure {
			return true
		}
	}
	return false
}

// String renders the circuit one gate per line.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d qubits, %d gates)\n", c.Name, c.N, len(c.Gates))
	for _, g := range c.Gates {
		b.WriteString("  ")
		b.WriteString(g.String())
		b.WriteByte('\n')
	}
	return b.String()
}

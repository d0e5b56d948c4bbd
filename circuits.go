package qbeep

import (
	"context"
	"fmt"

	"qbeep/internal/algorithms"
	"qbeep/internal/bitstring"
	"qbeep/internal/qasm"
)

// BernsteinVaziraniQASM builds the (n+1)-qubit Bernstein-Vazirani circuit
// for the given secret (a binary string of length n) and returns it as
// OpenQASM 2.0. The data register q[0..n-1] yields the secret on a
// perfect machine; q[n] is the phase-kickback ancilla.
func BernsteinVaziraniQASM(secret string) (string, error) {
	v, n, err := bitstring.Parse(secret)
	if err != nil {
		return "", err
	}
	w, err := algorithms.BernsteinVazirani(n, v)
	if err != nil {
		return "", err
	}
	return qasm.Write(w.Circuit)
}

// SuiteNames lists the QASMBench-style benchmark circuits shipped with
// the library (paper Figs. 8, 9, 11).
func SuiteNames() []string {
	entries := algorithms.Suite()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names
}

// SuiteCircuit returns a named benchmark circuit as OpenQASM 2.0 together
// with its ideal output distribution over the data qubits and the
// data-qubit list itself (circuits such as lpn_n5 carry an ancilla;
// marginalize measured counts onto dataQubits before scoring).
func SuiteCircuit(name string) (qasmSource string, ideal Counts, dataQubits []int, err error) {
	w, err := algorithms.BySuiteName(name)
	if err != nil {
		return "", nil, nil, err
	}
	src, err := qasm.Write(w.Circuit)
	if err != nil {
		return "", nil, nil, err
	}
	idealDist, err := w.IdealDist(context.Background()) //qbeep:allow-ctx ctx-less signature is pinned by the e2ebench module's circuit-suite inputs
	if err != nil {
		return "", nil, nil, err
	}
	return src, idealDist.StringCounts(), append([]int(nil), w.DataQubits...), nil
}

// MarginalizeCounts projects full-register counts onto the listed qubits
// (result bit i = input qubit keep[i]); use it to drop ancillas before
// scoring, e.g. the BV ancilla.
func MarginalizeCounts(counts Counts, keep []int) (Counts, error) {
	d, err := bitstring.FromStringCounts(counts)
	if err != nil {
		return nil, err
	}
	m, err := d.Marginal(keep)
	if err != nil {
		return nil, err
	}
	return m.StringCounts(), nil
}

// DataQubits returns the 0..n-1 qubit list, the data register of an
// n-data-qubit workload with trailing ancillas.
func DataQubits(n int) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("qbeep: width %d must be positive", n)
	}
	qs := make([]int, n)
	for i := range qs {
		qs[i] = i
	}
	return qs, nil
}

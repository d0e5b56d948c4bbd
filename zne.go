package qbeep

import (
	"context"
	"qbeep/internal/qasm"
	"qbeep/internal/zne"
)

// FoldQASM amplifies a circuit's noise exposure by unitary gate folding
// (G → G·G†·G at scale 3, and so on for odd scales): the returned OpenQASM
// program computes the same unitary with scale× the gate count. Run the
// folded variants and extrapolate an observable to zero noise with
// ExtrapolateZero — zero-noise extrapolation, a QEM technique that
// composes with Q-BEEP (ZNE corrects expectation values, Q-BEEP corrects
// distributions).
func FoldQASM(qasmSource string, scale int) (string, error) {
	c, err := qasm.ParseCtx(context.Background(), qasmSource) //qbeep:allow-ctx ctx-less public convenience form roots its own context
	if err != nil {
		return "", err
	}
	folded, err := zne.Fold(c, scale)
	if err != nil {
		return "", err
	}
	return qasm.Write(folded)
}

// ZNEPoint is one (noise scale, measured observable) sample for
// extrapolation.
type ZNEPoint = zne.Point

// ExtrapolateZero fits measured observable values against their noise
// scales and returns the zero-noise estimate. Linear fitting is used —
// robust for the 2–4 point protocols folding supports; see also
// ExtrapolateZeroExp and the internal zne package for Richardson
// extrapolation.
func ExtrapolateZero(points []ZNEPoint) (float64, error) {
	return zne.ExtrapolateLinear(points)
}

// ExtrapolateZeroExp fits the exponential-decay model value = a·e^(b·s) —
// the right choice for success probabilities, which decay geometrically
// with the folded gate count.
func ExtrapolateZeroExp(points []ZNEPoint) (float64, error) {
	return zne.ExtrapolateExp(points)
}

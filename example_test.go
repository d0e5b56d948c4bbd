package qbeep_test

import (
	"context"
	"fmt"
	"sort"

	"qbeep"
)

// The canonical post-processing flow: estimate λ from the circuit and the
// backend calibration, then reflow the raw counts.
func ExampleMitigateCtx() {
	raw := qbeep.Counts{
		"1011": 3600, // the true answer
		"1010": 160,  // distance-1 errors
		"1001": 150,
		"0011": 140,
		"0110": 46, // a distance-2 error
	}
	mitigated, err := qbeep.MitigateCtx(context.Background(), raw, 0.8, qbeep.NewOptions())
	if err != nil {
		fmt.Println(err)
		return
	}
	before, _ := qbeep.PST(raw, "1011")
	after, _ := qbeep.PST(mitigated, "1011")
	fmt.Printf("PST %.3f -> %.3f\n", before, after)
	// Output:
	// PST 0.879 -> 0.988
}

// Estimating λ needs only the circuit and the calibration snapshot — it
// never sees measurement data.
func ExampleEstimateLambdaQASMCtx() {
	src, err := qbeep.BernsteinVaziraniQASM("1011")
	if err != nil {
		fmt.Println(err)
		return
	}
	lambda, err := qbeep.EstimateLambdaQASMCtx(context.Background(), src, "galway")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("lambda is positive: %v\n", lambda.Total() > 0)
	fmt.Printf("terms: T1+T2+gates = total: %v\n",
		lambda.T1+lambda.T2+lambda.Gates == lambda.Total())
	// Output:
	// lambda is positive: true
	// terms: T1+T2+gates = total: true
}

// The backend catalog stands in for the paper's 16-machine IBMQ fleet.
func ExampleBackends() {
	infos, err := qbeep.Backends()
	if err != nil {
		fmt.Println(err)
		return
	}
	names := make([]string, 0, 3)
	for _, b := range infos {
		if b.Qubits >= 100 || b.Architecture == "trapped-ion" {
			names = append(names, fmt.Sprintf("%s(%d)", b.Name, b.Qubits))
		}
	}
	sort.Strings(names)
	fmt.Println(names)
	// Output:
	// [ion-5(5) oslo2(110) pinnacle(129)]
}

// Readout correction composes with Q-BEEP: invert the measurement
// confusion first, then mitigate the circuit-level structure.
func ExampleCorrectReadout() {
	raw := qbeep.Counts{"11": 810, "10": 95, "01": 90, "00": 5}
	corrected, err := qbeep.CorrectReadout(raw, []float64{0.1, 0.1})
	if err != nil {
		fmt.Println(err)
		return
	}
	p, _ := qbeep.PST(corrected, "11")
	fmt.Printf("P(11) corrected above 0.98: %v\n", p > 0.98)
	// Output:
	// P(11) corrected above 0.98: true
}

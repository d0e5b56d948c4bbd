// Quickstart: mitigate a noisy 8-qubit Bernstein-Vazirani induction with
// Q-BEEP, end to end, using only the public qbeep API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"qbeep"
)

func main() {
	ctx := context.Background()
	const secret = "10110100"

	// 1. Build the circuit (OpenQASM 2.0).
	src, err := qbeep.BernsteinVaziraniQASM(secret)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Run it on a synthetic calibrated backend under hardware-style
	// noise. On real hardware you would submit src and collect counts;
	// SimulateCtx also returns the pre-induction λ estimate (paper Eq. 2).
	sim, err := qbeep.SimulateCtx(ctx, src, "istanbul", 4096, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transpiled to %d basis gates (%d SWAPs); schedule %.1f us\n",
		sim.TranspiledGates, sim.Swaps, sim.Lambda.Time*1e6)
	fmt.Printf("lambda = %.3f  (T1 %.3f + T2 %.3f + gates %.3f)\n",
		sim.Lambda.Total(), sim.Lambda.T1, sim.Lambda.T2, sim.Lambda.Gates)

	// 3. Drop the phase-kickback ancilla (qubit 8) before scoring.
	keep, err := qbeep.DataQubits(len(secret))
	if err != nil {
		log.Fatal(err)
	}
	raw, err := qbeep.MarginalizeCounts(sim.Raw, keep)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Mitigate with the paper's published configuration.
	mitigated, err := qbeep.MitigateCtx(ctx, raw, sim.Lambda.Total(), qbeep.NewOptions())
	if err != nil {
		log.Fatal(err)
	}

	// 5. Score.
	pstRaw, err := qbeep.PST(raw, secret)
	if err != nil {
		log.Fatal(err)
	}
	pstQB, err := qbeep.PST(mitigated, secret)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PST(secret=%s): raw %.4f -> mitigated %.4f (%.2fx)\n",
		secret, pstRaw, pstQB, pstQB/pstRaw)

	ideal := qbeep.Counts{secret: 1}
	fRaw, err := qbeep.Fidelity(ideal, raw)
	if err != nil {
		log.Fatal(err)
	}
	fQB, err := qbeep.Fidelity(ideal, mitigated)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fidelity: raw %.4f -> mitigated %.4f\n", fRaw, fQB)
}

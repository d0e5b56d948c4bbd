// Mitigation zoo: the same noisy Bernstein-Vazirani induction processed
// by every mitigation strategy in the library — raw, readout correction,
// Q-BEEP, readout + Q-BEEP, zero-noise extrapolation, and a 3-machine
// ensemble — so their costs and gains can be compared side by side.
//
//	go run ./examples/mitigationzoo
package main

import (
	"context"
	"fmt"
	"log"

	"qbeep"
)

const secret = "1011010"

func main() {
	ctx := context.Background()
	src, err := qbeep.BernsteinVaziraniQASM(secret)
	if err != nil {
		log.Fatal(err)
	}
	keep, err := qbeep.DataQubits(len(secret))
	if err != nil {
		log.Fatal(err)
	}

	// One reference induction on a mid-quality machine.
	const machine = "istanbul"
	sim, err := qbeep.SimulateCtx(ctx, src, machine, 4096, 2)
	if err != nil {
		log.Fatal(err)
	}
	raw, err := qbeep.MarginalizeCounts(sim.Raw, keep)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d-qubit BV on %s, 4096 shots, lambda %.3f\n\n", len(secret), machine, sim.Lambda.Total())
	fmt.Printf("%-24s %8s %9s\n", "strategy", "PST", "vs raw")
	report := func(name string, counts qbeep.Counts) {
		p, err := qbeep.PST(counts, secret)
		if err != nil {
			log.Fatal(err)
		}
		base, _ := qbeep.PST(raw, secret)
		fmt.Printf("%-24s %8.4f %8.2fx\n", name, p, p/base)
	}
	report("raw", raw)

	// Readout correction alone.
	flips, err := qbeep.BackendReadoutRates(machine, len(secret))
	if err != nil {
		log.Fatal(err)
	}
	corrected, err := qbeep.CorrectReadout(raw, flips)
	if err != nil {
		log.Fatal(err)
	}
	report("readout", corrected)

	// Q-BEEP alone.
	qb, err := qbeep.MitigateCtx(ctx, raw, sim.Lambda.Total(), qbeep.NewOptions())
	if err != nil {
		log.Fatal(err)
	}
	report("qbeep", qb)

	// Readout then Q-BEEP.
	both, err := qbeep.MitigateCtx(ctx, corrected, sim.Lambda.Total(), qbeep.NewOptions())
	if err != nil {
		log.Fatal(err)
	}
	report("readout+qbeep", both)

	// Zero-noise extrapolation of the PST (3 folded inductions).
	var pts []qbeep.ZNEPoint
	for _, scale := range []int{1, 3, 5} {
		folded, err := qbeep.FoldQASMCtx(ctx, src, scale)
		if err != nil {
			log.Fatal(err)
		}
		fsim, err := qbeep.SimulateCtx(ctx, folded, machine, 4096, uint64(10+scale))
		if err != nil {
			log.Fatal(err)
		}
		fraw, err := qbeep.MarginalizeCounts(fsim.Raw, keep)
		if err != nil {
			log.Fatal(err)
		}
		p, err := qbeep.PST(fraw, secret)
		if err != nil {
			log.Fatal(err)
		}
		pts = append(pts, qbeep.ZNEPoint{Scale: float64(scale), Value: p})
	}
	zero, err := qbeep.ExtrapolateZeroExp(pts)
	if err != nil {
		log.Fatal(err)
	}
	base, _ := qbeep.PST(raw, secret)
	fmt.Printf("%-24s %8.4f %8.2fx   (3x shots)\n", "zne (PST estimate)", zero, zero/base)

	// 3-machine ensemble, each member Q-BEEP-mitigated and e^-λ weighted.
	var runs []qbeep.EnsembleRun
	for i, m := range []string{"istanbul", "kyiv", "galway"} {
		msim, err := qbeep.SimulateCtx(ctx, src, m, 4096, uint64(20+i))
		if err != nil {
			log.Fatal(err)
		}
		mraw, err := qbeep.MarginalizeCounts(msim.Raw, keep)
		if err != nil {
			log.Fatal(err)
		}
		runs = append(runs, qbeep.EnsembleRun{Counts: mraw, Lambda: msim.Lambda.Total()})
	}
	ens, err := qbeep.MitigateEnsembleCtx(ctx, runs, qbeep.NewOptions())
	if err != nil {
		log.Fatal(err)
	}
	report("ensemble(3)+qbeep", ens)
}

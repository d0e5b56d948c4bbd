// Bernstein-Vazirani sweep (paper §4.2 scenario): run BV circuits of
// several widths across several synthetic machines, mitigate each
// induction with Q-BEEP, and tabulate PST and fidelity improvements —
// a miniature of the paper's Fig. 7.
//
//	go run ./examples/bernsteinvazirani
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"qbeep"
)

func main() {
	ctx := context.Background()
	widths := []int{5, 7, 9, 11}
	machines := []string{"istanbul", "kyiv", "medellin", "nairobi2"}
	rng := rand.New(rand.NewSource(7))

	fmt.Printf("%-3s %-10s %-16s %8s %8s %7s %8s %8s\n",
		"n", "machine", "secret", "pst-raw", "pst-qb", "gain", "fid-raw", "fid-qb")

	var gains []float64
	for _, n := range widths {
		for _, m := range machines {
			secret := randomSecret(n, rng)
			src, err := qbeep.BernsteinVaziraniQASM(secret)
			if err != nil {
				log.Fatal(err)
			}
			sim, err := qbeep.SimulateCtx(ctx, src, m, 4096, rng.Uint64())
			if err != nil {
				log.Fatal(err)
			}
			keep, err := qbeep.DataQubits(n)
			if err != nil {
				log.Fatal(err)
			}
			raw, err := qbeep.MarginalizeCounts(sim.Raw, keep)
			if err != nil {
				log.Fatal(err)
			}
			mitigated, err := qbeep.MitigateCtx(ctx, raw, sim.Lambda.Total(), qbeep.NewOptions())
			if err != nil {
				log.Fatal(err)
			}
			pstRaw, err := qbeep.PST(raw, secret)
			if err != nil {
				log.Fatal(err)
			}
			pstQB, err := qbeep.PST(mitigated, secret)
			if err != nil {
				log.Fatal(err)
			}
			ideal := qbeep.Counts{secret: 1}
			fRaw, err := qbeep.Fidelity(ideal, raw)
			if err != nil {
				log.Fatal(err)
			}
			fQB, err := qbeep.Fidelity(ideal, mitigated)
			if err != nil {
				log.Fatal(err)
			}
			gain := 1.0
			if pstRaw > 0 {
				gain = pstQB / pstRaw
			}
			gains = append(gains, gain)
			fmt.Printf("%-3d %-10s %-16s %8.4f %8.4f %6.2fx %8.4f %8.4f\n",
				n, m, secret, pstRaw, pstQB, gain, fRaw, fQB)
		}
	}

	var sum float64
	for _, g := range gains {
		sum += g
	}
	fmt.Printf("\nmean PST improvement over %d inductions: %.2fx (paper reports 1.77x on real IBMQ)\n",
		len(gains), sum/float64(len(gains)))
}

func randomSecret(n int, rng *rand.Rand) string {
	for {
		b := make([]byte, n)
		ones := 0
		for i := range b {
			if rng.Intn(2) == 1 {
				b[i] = '1'
				ones++
			} else {
				b[i] = '0'
			}
		}
		if ones > 0 {
			return string(b)
		}
	}
}

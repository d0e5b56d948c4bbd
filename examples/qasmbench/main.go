// QASMBench-style multi-algorithm study (paper §4.3/§5 scenario): run
// every suite circuit on several machines, mitigate with Q-BEEP, and
// relate the fidelity gain to each algorithm's ideal output entropy — a
// miniature of the paper's Figs. 8 and 11.
//
//	go run ./examples/qasmbench
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"

	"qbeep"
)

func main() {
	ctx := context.Background()
	machines := []string{"carthage", "eldorado", "istanbul"}

	type row struct {
		name    string
		entropy float64
		gain    float64
	}
	var rows []row

	for _, name := range qbeep.SuiteNames() {
		src, ideal, dataQubits, err := qbeep.SuiteCircuit(name)
		if err != nil {
			log.Fatal(err)
		}
		entropy := shannon(ideal)
		var gains []float64
		for i, m := range machines {
			sim, err := qbeep.SimulateCtx(ctx, src, m, 4096, uint64(100+i))
			if err != nil {
				log.Fatal(err)
			}
			raw, err := qbeep.MarginalizeCounts(sim.Raw, dataQubits)
			if err != nil {
				log.Fatal(err)
			}
			mitigated, err := qbeep.MitigateCtx(ctx, raw, sim.Lambda.Total(), qbeep.NewOptions())
			if err != nil {
				log.Fatal(err)
			}
			fRaw, err := qbeep.Fidelity(ideal, raw)
			if err != nil {
				log.Fatal(err)
			}
			fQB, err := qbeep.Fidelity(ideal, mitigated)
			if err != nil {
				log.Fatal(err)
			}
			if fRaw > 0 {
				gains = append(gains, fQB/fRaw)
			}
		}
		rows = append(rows, row{name: name, entropy: entropy, gain: mean(gains)})
	}

	sort.Slice(rows, func(i, j int) bool { return rows[i].entropy < rows[j].entropy })
	fmt.Printf("%-20s %9s %10s\n", "algorithm", "entropy", "fid-gain")
	for _, r := range rows {
		fmt.Printf("%-20s %9.3f %9.4fx\n", r.name, r.entropy, r.gain)
	}

	// The paper's Fig. 11 observation: gains anti-correlate with entropy.
	var xs, ys []float64
	for _, r := range rows {
		xs = append(xs, r.entropy)
		ys = append(ys, r.gain)
	}
	fmt.Printf("\ncorrelation(entropy, gain) = %.3f (paper reports a strong inverse correlation)\n",
		correlation(xs, ys))
}

func shannon(counts qbeep.Counts) float64 {
	var total float64
	for _, c := range counts {
		total += c
	}
	var h float64
	for _, c := range counts {
		p := c / total
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func correlation(xs, ys []float64) float64 {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

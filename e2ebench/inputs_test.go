package main

import (
	"reflect"
	"testing"
)

func TestGenerateIsDeterministicInTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, err := generate(name, 7, smokeSize)
			if err != nil {
				t.Fatal(err)
			}
			b, err := generate(name, 7, smokeSize)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("seed 7 generated different inputs on two calls")
			}
			c, err := generate(name, 8, smokeSize)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a, c) {
				t.Fatal("seeds 7 and 8 generated identical inputs")
			}
		})
	}
}

func TestGenerateRejectsUnknownWorkload(t *testing.T) {
	if _, err := generate("nope", 1, smokeSize); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// The full-size corpus and request counts are what README.md and
// BENCHMARK.json describe.
func TestFullSizeShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full-size inputs")
	}
	want := map[string]int{
		countsLarge: 1,
		circuits:    len(backends) * (len(fullSize.suite) + len(fullSize.bvWidths)),
		qaoaFleet:   len(backends) * len(fullSize.qaoaWidths) * fullSize.qaoaMaxP * 2 * fullSize.qaoaPerCell,
	}
	for name, n := range want {
		reqs, err := generate(name, 1, fullSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) != n {
			t.Errorf("%s: %d requests, want %d", name, len(reqs), n)
		}
	}
}

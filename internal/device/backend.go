package device

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"qbeep/internal/mathx"
)

// Architecture distinguishes the two NISQ technologies the paper studies.
type Architecture string

const (
	Superconducting Architecture = "superconducting"
	TrappedIon      Architecture = "trapped-ion"
)

// Backend is a complete processor model: identity, topology and the
// current calibration snapshot. It is everything Q-BEEP's λ estimator and
// the noisy executor need.
//
// Backends are read-only after construction: Catalog, ByName and
// IonBackend hand out one shared value per machine, so a caller that
// needs a variant builds a fresh one (Drifted, UnmarshalJSON) instead of
// writing to a returned backend, its Topology or its Calibration.
type Backend struct {
	Name         string
	Architecture Architecture
	Topology     *Topology
	Calibration  *Calibration
}

// Validate checks the backend is internally consistent.
func (b *Backend) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("device: backend without a name")
	}
	if b.Topology == nil || b.Calibration == nil {
		return fmt.Errorf("device: backend %q missing topology or calibration", b.Name)
	}
	return b.Calibration.Validate(b.Topology)
}

// newBackend assembles a backend and validates it. Every constructor —
// the catalog, IonBackend, Drifted and UnmarshalJSON — builds through it,
// so every backend they hand out is valid and its users (the executors)
// do not check it again.
func newBackend(name string, arch Architecture, topo *Topology, cal *Calibration) (*Backend, error) {
	b := &Backend{Name: name, Architecture: arch, Topology: topo, Calibration: cal}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// N returns the backend's qubit count.
func (b *Backend) N() int { return b.Topology.N() }

// spec describes one synthetic machine in the catalog. Names are fictional
// but follow IBMQ's city-name convention; sizes and topologies mirror the
// Falcon/Hummingbird/Eagle generations the paper's 5–127-qubit fleet spans.
type spec struct {
	name    string
	build   func() (*Topology, error)
	quality float64 // QualityScale: >1 noisier than the fleet median
	seed    uint64
}

func catalogSpecs() []spec {
	return []spec{
		{"auckland", func() (*Topology, error) { return TShape() }, 0.9, 101},
		{"bengal", func() (*Topology, error) { return TShape() }, 1.4, 102},
		{"carthage", func() (*Topology, error) { return Linear(7) }, 0.8, 103},
		{"dresden", func() (*Topology, error) { return Linear(7) }, 1.2, 104},
		{"eldorado", func() (*Topology, error) { return Grid(3, 4) }, 1.0, 105},
		{"fukuoka", func() (*Topology, error) { return Grid(3, 4) }, 1.6, 106},
		{"galway", func() (*Topology, error) { return Ring(12) }, 0.7, 107},
		{"hanoi2", func() (*Topology, error) { return Ring(16) }, 1.1, 108},
		{"istanbul", func() (*Topology, error) { return HeavyHex(3, 9) }, 0.8, 109},
		{"jakarta2", func() (*Topology, error) { return HeavyHex(3, 9) }, 1.3, 110},
		{"kyiv", func() (*Topology, error) { return HeavyHex(4, 11) }, 0.9, 111},
		{"lagos2", func() (*Topology, error) { return HeavyHex(4, 11) }, 1.5, 112},
		{"medellin", func() (*Topology, error) { return HeavyHex(5, 13) }, 1.0, 113},
		{"nairobi2", func() (*Topology, error) { return HeavyHex(5, 13) }, 1.8, 114},
		{"oslo2", func() (*Topology, error) { return HeavyHex(6, 15) }, 1.1, 115},
		{"pinnacle", func() (*Topology, error) { return HeavyHex(7, 15) }, 1.2, 116},
	}
}

// Catalog returns the 16 synthetic superconducting backends standing in for
// the paper's IBMQ fleet. Calibrations are deterministic (fixed per-machine
// seeds) and built once per process: every call returns the same shared,
// read-only backends in a fresh slice.
func Catalog() ([]*Backend, error) {
	all, err := catalog()
	if err != nil {
		return nil, err
	}
	return slices.Clone(all), nil
}

// catalog builds the fleet on first use; ByName and CatalogSubset read
// the shared slice without copying it.
var catalog = sync.OnceValues(func() ([]*Backend, error) {
	specs := catalogSpecs()
	backends := make([]*Backend, 0, len(specs))
	for _, s := range specs {
		topo, err := s.build()
		if err != nil {
			return nil, fmt.Errorf("device: building %s: %w", s.name, err)
		}
		prof := SuperconductingProfile()
		prof.QualityScale = s.quality
		b, err := newBackend(s.name, Superconducting, topo, GenerateCalibration(topo, prof, mathx.NewRNG(s.seed)))
		if err != nil {
			return nil, err
		}
		backends = append(backends, b)
	}
	return backends, nil
})

// ByName returns the shared catalog backend with the given name.
func ByName(name string) (*Backend, error) {
	all, err := catalog()
	if err != nil {
		return nil, err
	}
	for _, b := range all {
		if b.Name == name {
			return b, nil
		}
	}
	names := make([]string, len(all))
	for i, b := range all {
		names[i] = b.Name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("device: unknown backend %q (have %v)", name, names)
}

// IonBackend returns the synthetic 5-qubit trapped-ion backend standing in
// for IonQ's processor in Fig. 4(b), built once and shared like the
// catalog's.
func IonBackend() (*Backend, error) { return ionBackend() }

var ionBackend = sync.OnceValues(func() (*Backend, error) {
	topo, err := AllToAll(5)
	if err != nil {
		return nil, err
	}
	return newBackend("ion-5", TrappedIon, topo, GenerateCalibration(topo, TrappedIonProfile(), mathx.NewRNG(777)))
})

// CatalogSubset returns the first k catalog backends whose qubit count is
// at least minQubits, erroring if fewer than k qualify. Experiment runners
// use it to pick fleets for a given circuit width.
func CatalogSubset(k, minQubits int) ([]*Backend, error) {
	all, err := catalog()
	if err != nil {
		return nil, err
	}
	var out []*Backend
	for _, b := range all {
		if b.N() >= minQubits {
			out = append(out, b)
		}
		if len(out) == k {
			return out, nil
		}
	}
	return nil, fmt.Errorf("device: only %d backends with >= %d qubits, need %d", len(out), minQubits, k)
}

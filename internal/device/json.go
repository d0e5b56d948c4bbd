package device

import (
	"encoding/json"
	"fmt"
)

// The wire format keys two-qubit calibrations by "a-b" strings because JSON
// objects cannot use struct keys. Backends round-trip losslessly through
// MarshalJSON/UnmarshalJSON so the catalog can be exported for other tools
// (cmd/qbeep-backends) and user-supplied backends can be loaded by the CLI.

type calibrationWire struct {
	Qubits  []QubitCalibration         `json:"qubits"`
	Gates1Q []GateCalibration          `json:"gates_1q"`
	Gates2Q map[string]GateCalibration `json:"gates_2q"`
}

type backendWire struct {
	Name         string          `json:"name"`
	Architecture Architecture    `json:"architecture"`
	NumQubits    int             `json:"num_qubits"`
	Edges        [][2]int        `json:"edges"`
	Calibration  calibrationWire `json:"calibration"`
}

func edgeKey(e Edge) string { return fmt.Sprintf("%d-%d", e.A, e.B) }

func parseEdgeKey(s string) (Edge, error) {
	var a, b int
	if _, err := fmt.Sscanf(s, "%d-%d", &a, &b); err != nil {
		return Edge{}, fmt.Errorf("device: bad edge key %q: %w", s, err)
	}
	return NormEdge(a, b), nil
}

// MarshalJSON renders the backend in the documented wire format.
func (b *Backend) MarshalJSON() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	w := backendWire{
		Name:         b.Name,
		Architecture: b.Architecture,
		NumQubits:    b.N(),
		Calibration: calibrationWire{
			Qubits:  b.Calibration.Qubits,
			Gates1Q: b.Calibration.Gates1Q,
			Gates2Q: make(map[string]GateCalibration, len(b.Calibration.Gates2Q)),
		},
	}
	for _, e := range b.Topology.Edges() {
		w.Edges = append(w.Edges, [2]int{e.A, e.B})
		w.Calibration.Gates2Q[edgeKey(e)] = b.Calibration.Gates2Q[e]
	}
	return json.Marshal(w)
}

// UnmarshalJSON parses the wire format and validates the result.
func (b *Backend) UnmarshalJSON(data []byte) error {
	var w backendWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	edges := make([]Edge, len(w.Edges))
	for i, e := range w.Edges {
		edges[i] = NormEdge(e[0], e[1])
	}
	topo, err := NewTopology(w.NumQubits, edges)
	if err != nil {
		return err
	}
	cal := &Calibration{
		Qubits:  w.Calibration.Qubits,
		Gates1Q: w.Calibration.Gates1Q,
		Gates2Q: make(map[Edge]GateCalibration, len(w.Calibration.Gates2Q)),
	}
	for k, g := range w.Calibration.Gates2Q {
		e, err := parseEdgeKey(k)
		if err != nil {
			return err
		}
		cal.Gates2Q[e] = g
	}
	nb, err := newBackend(w.Name, w.Architecture, topo, cal)
	if err != nil {
		return err
	}
	*b = *nb
	return nil
}

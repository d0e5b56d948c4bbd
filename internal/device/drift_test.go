package device

import (
	"math"
	"testing"
)

func TestDriftedValidation(t *testing.T) {
	if _, err := Drifted(nil, 0.5, 1); err == nil {
		t.Error("nil backend should error")
	}
	b, _ := ByName("galway")
	if _, err := Drifted(b, -1, 1); err == nil {
		t.Error("negative severity should error")
	}
}

func TestDriftedZeroSeverityIsIdentity(t *testing.T) {
	b, _ := ByName("galway")
	d, err := Drifted(b, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Calibration.Qubits {
		if d.Calibration.Qubits[i] != b.Calibration.Qubits[i] {
			t.Fatalf("qubit %d changed under zero drift", i)
		}
	}
}

func TestDriftedChangesCalibration(t *testing.T) {
	b, _ := ByName("galway")
	d, err := Drifted(b, 0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Name == b.Name {
		t.Error("drifted backend should be renamed")
	}
	changed := 0
	for i := range b.Calibration.Qubits {
		if math.Abs(d.Calibration.Qubits[i].T1-b.Calibration.Qubits[i].T1) > 1e-12 {
			changed++
		}
		if d.Calibration.Qubits[i].T2 > 2*d.Calibration.Qubits[i].T1+1e-12 {
			t.Errorf("qubit %d violates T2 <= 2T1 after drift", i)
		}
	}
	if changed == 0 {
		t.Error("drift changed nothing")
	}
	// Topology must be shared, untouched.
	if len(d.Topology.Edges()) != len(b.Topology.Edges()) {
		t.Error("topology changed")
	}
}

func TestDriftedDeterministic(t *testing.T) {
	b, _ := ByName("galway")
	d1, _ := Drifted(b, 0.5, 42)
	d2, _ := Drifted(b, 0.5, 42)
	for i := range d1.Calibration.Qubits {
		if d1.Calibration.Qubits[i] != d2.Calibration.Qubits[i] {
			t.Fatal("drift not deterministic")
		}
	}
}

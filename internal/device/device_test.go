package device

import (
	"encoding/json"
	"testing"
	"testing/quick"

	"qbeep/internal/mathx"
)

func TestNewTopologyValidation(t *testing.T) {
	if _, err := NewTopology(0, nil); err == nil {
		t.Error("zero qubits should error")
	}
	if _, err := NewTopology(3, []Edge{{0, 0}}); err == nil {
		t.Error("self-loop should error")
	}
	if _, err := NewTopology(3, []Edge{{0, 5}}); err == nil {
		t.Error("out-of-range edge should error")
	}
	topo, err := NewTopology(3, []Edge{{0, 1}, {1, 0}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Edges()) != 2 {
		t.Errorf("duplicate edges not merged: %v", topo.Edges())
	}
}

func TestConnectedAndNeighbors(t *testing.T) {
	topo, _ := Linear(4)
	if !topo.Connected(1, 2) || !topo.Connected(2, 1) {
		t.Error("Connected should be symmetric")
	}
	if topo.Connected(0, 3) {
		t.Error("0 and 3 should not be coupled in a chain")
	}
	nb := topo.Neighbors(1)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Errorf("Neighbors(1) = %v", nb)
	}
}

func TestShortestPath(t *testing.T) {
	topo, _ := Linear(5)
	p, err := topo.ShortestPath(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v", p)
		}
	}
	p, _ = topo.ShortestPath(2, 2)
	if len(p) != 1 || p[0] != 2 {
		t.Errorf("self path = %v", p)
	}
	if _, err := topo.ShortestPath(0, 9); err == nil {
		t.Error("out-of-range endpoint should error")
	}
	// Disconnected graph.
	d, _ := NewTopology(4, []Edge{{0, 1}, {2, 3}})
	if _, err := d.ShortestPath(0, 3); err == nil {
		t.Error("disconnected pair should error")
	}
	if d.IsConnected() {
		t.Error("graph should report disconnected")
	}
}

func TestDistance(t *testing.T) {
	topo, _ := Ring(6)
	d, err := topo.Distance(0, 3)
	if err != nil || d != 3 {
		t.Errorf("ring distance = %d, %v", d, err)
	}
	d, _ = topo.Distance(0, 5)
	if d != 1 {
		t.Errorf("wraparound distance = %d", d)
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name  string
		topo  func() (*Topology, error)
		n     int
		edges int
	}{
		{"linear5", func() (*Topology, error) { return Linear(5) }, 5, 4},
		{"ring6", func() (*Topology, error) { return Ring(6) }, 6, 6},
		{"grid23", func() (*Topology, error) { return Grid(2, 3) }, 6, 7},
		{"all2all4", func() (*Topology, error) { return AllToAll(4) }, 4, 6},
		{"tshape", TShape, 5, 4},
	}
	for _, c := range cases {
		topo, err := c.topo()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if topo.N() != c.n || len(topo.Edges()) != c.edges {
			t.Errorf("%s: n=%d edges=%d want %d/%d", c.name, topo.N(), len(topo.Edges()), c.n, c.edges)
		}
		if !topo.IsConnected() {
			t.Errorf("%s: not connected", c.name)
		}
	}
	if _, err := Ring(2); err == nil {
		t.Error("tiny ring should error")
	}
	if _, err := Grid(0, 3); err == nil {
		t.Error("zero grid should error")
	}
}

func TestHeavyHex(t *testing.T) {
	topo, err := HeavyHex(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !topo.IsConnected() {
		t.Error("heavy-hex should be connected")
	}
	if topo.N() <= 27 {
		t.Errorf("heavy-hex 3x9 has %d qubits, expected > 27", topo.N())
	}
	// Heavy-hex is sparse: max degree 3.
	for q := 0; q < topo.N(); q++ {
		if deg := len(topo.Neighbors(q)); deg > 3 {
			t.Errorf("qubit %d degree %d > 3", q, deg)
		}
	}
	if _, err := HeavyHex(0, 9); err == nil {
		t.Error("invalid heavy-hex should error")
	}
}

func TestNormEdge(t *testing.T) {
	if NormEdge(3, 1) != (Edge{A: 1, B: 3}) {
		t.Error("NormEdge did not order")
	}
}

func TestGenerateCalibrationValid(t *testing.T) {
	topo, _ := Grid(3, 3)
	cal := GenerateCalibration(topo, SuperconductingProfile(), mathx.NewRNG(1))
	if err := cal.Validate(topo); err != nil {
		t.Fatal(err)
	}
	for i, q := range cal.Qubits {
		if q.T2 > 2*q.T1 {
			t.Errorf("qubit %d violates T2 <= 2T1: %v %v", i, q.T1, q.T2)
		}
	}
	if cal.MeanT1() <= 0 || cal.MeanT2() <= 0 || cal.MeanReadoutError() <= 0 {
		t.Error("means should be positive")
	}
}

func TestGenerateCalibrationDeterministic(t *testing.T) {
	topo, _ := Linear(5)
	a := GenerateCalibration(topo, SuperconductingProfile(), mathx.NewRNG(9))
	b := GenerateCalibration(topo, SuperconductingProfile(), mathx.NewRNG(9))
	for i := range a.Qubits {
		if a.Qubits[i] != b.Qubits[i] {
			t.Fatal("same seed produced different calibration")
		}
	}
}

func TestQualityScaleDegrades(t *testing.T) {
	topo, _ := Linear(8)
	good := SuperconductingProfile()
	bad := SuperconductingProfile()
	bad.QualityScale = 3
	a := GenerateCalibration(topo, good, mathx.NewRNG(4))
	b := GenerateCalibration(topo, bad, mathx.NewRNG(4))
	if b.MeanReadoutError() <= a.MeanReadoutError() {
		t.Errorf("QualityScale did not degrade readout: %v vs %v",
			a.MeanReadoutError(), b.MeanReadoutError())
	}
}

func TestCalibrationValidateErrors(t *testing.T) {
	topo, _ := Linear(3)
	cal := GenerateCalibration(topo, SuperconductingProfile(), mathx.NewRNG(1))
	// Missing edge calibration.
	broken := &Calibration{Qubits: cal.Qubits, Gates1Q: cal.Gates1Q,
		Gates2Q: map[Edge]GateCalibration{}}
	if err := broken.Validate(topo); err == nil {
		t.Error("missing 2q calibration should error")
	}
	short := &Calibration{Qubits: cal.Qubits[:2], Gates1Q: cal.Gates1Q, Gates2Q: cal.Gates2Q}
	if err := short.Validate(topo); err == nil {
		t.Error("short qubit list should error")
	}
	negT := &Calibration{Qubits: append([]QubitCalibration(nil), cal.Qubits...),
		Gates1Q: cal.Gates1Q, Gates2Q: cal.Gates2Q}
	negT.Qubits[0].T1 = -1
	if err := negT.Validate(topo); err == nil {
		t.Error("negative T1 should error")
	}
}

func TestCatalogShape(t *testing.T) {
	backends, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(backends) != 16 {
		t.Fatalf("catalog size %d want 16", len(backends))
	}
	seen := map[string]bool{}
	minN, maxN := 1<<30, 0
	for _, b := range backends {
		if seen[b.Name] {
			t.Errorf("duplicate backend name %q", b.Name)
		}
		seen[b.Name] = true
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if b.Architecture != Superconducting {
			t.Errorf("%s: architecture %s", b.Name, b.Architecture)
		}
		if b.N() < minN {
			minN = b.N()
		}
		if b.N() > maxN {
			maxN = b.N()
		}
	}
	if minN != 5 {
		t.Errorf("smallest backend %d qubits, want 5", minN)
	}
	if maxN < 100 {
		t.Errorf("largest backend %d qubits, want >= 100 (Eagle-class)", maxN)
	}
}

func TestCatalogDeterministic(t *testing.T) {
	a, _ := Catalog()
	b, _ := Catalog()
	for i := range a {
		if a[i].Calibration.Qubits[0] != b[i].Calibration.Qubits[0] {
			t.Fatal("catalog not deterministic")
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("galway")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "galway" {
		t.Errorf("got %q", b.Name)
	}
	if _, err := ByName("nowhere"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestIonBackend(t *testing.T) {
	b, err := IonBackend()
	if err != nil {
		t.Fatal(err)
	}
	if b.Architecture != TrappedIon || b.N() != 5 {
		t.Errorf("ion backend: %s %d qubits", b.Architecture, b.N())
	}
	// All-to-all: every pair coupled.
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if !b.Topology.Connected(i, j) {
				t.Errorf("ion backend missing coupling (%d,%d)", i, j)
			}
		}
	}
	// Ion coherence should dominate superconducting.
	sc, _ := ByName("auckland")
	if b.Calibration.MeanT1() <= sc.Calibration.MeanT1() {
		t.Error("ion T1 should exceed superconducting T1")
	}
}

func TestCatalogSubset(t *testing.T) {
	subset, err := CatalogSubset(8, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 8 {
		t.Fatalf("subset size %d", len(subset))
	}
	for _, b := range subset {
		if b.N() < 12 {
			t.Errorf("%s has %d qubits < 12", b.Name, b.N())
		}
	}
	if _, err := CatalogSubset(100, 5); err == nil {
		t.Error("oversized request should error")
	}
}

func TestBackendJSONRoundTrip(t *testing.T) {
	orig, err := ByName("eldorado")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Backend
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || back.N() != orig.N() {
		t.Error("identity fields lost")
	}
	if len(back.Topology.Edges()) != len(orig.Topology.Edges()) {
		t.Error("edges lost")
	}
	for _, e := range orig.Topology.Edges() {
		if back.Calibration.Gates2Q[e] != orig.Calibration.Gates2Q[e] {
			t.Errorf("2q calibration for %v lost", e)
		}
	}
	for i := range orig.Calibration.Qubits {
		if back.Calibration.Qubits[i] != orig.Calibration.Qubits[i] {
			t.Errorf("qubit %d calibration lost", i)
		}
	}
}

func TestBackendUnmarshalRejectsBad(t *testing.T) {
	var b Backend
	if err := json.Unmarshal([]byte(`{"name":"x","num_qubits":0}`), &b); err == nil {
		t.Error("zero qubits should fail validation")
	}
	if err := json.Unmarshal([]byte(`{bad json`), &b); err == nil {
		t.Error("malformed json should error")
	}
}

func TestShortestPathIsShortest(t *testing.T) {
	topo, _ := Grid(4, 4)
	f := func(aRaw, bRaw uint8) bool {
		a, b := int(aRaw%16), int(bRaw%16)
		p, err := topo.ShortestPath(a, b)
		if err != nil {
			return false
		}
		// Path endpoints and adjacency.
		if p[0] != a || p[len(p)-1] != b {
			return false
		}
		for i := 0; i+1 < len(p); i++ {
			if !topo.Connected(p[i], p[i+1]) {
				return false
			}
		}
		// Manhattan distance on the grid is the true shortest length.
		manhattan := abs(a/4-b/4) + abs(a%4-b%4)
		return len(p)-1 == manhattan
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestGate2Q(t *testing.T) {
	b, _ := ByName("carthage")
	if _, ok := b.Calibration.Gate2Q(0, 1); !ok {
		t.Error("coupled pair should have calibration")
	}
	if _, ok := b.Calibration.Gate2Q(1, 0); !ok {
		t.Error("reversed pair should resolve via NormEdge")
	}
	if _, ok := b.Calibration.Gate2Q(0, 6); ok {
		t.Error("uncoupled pair should miss")
	}
}

func TestGateError(t *testing.T) {
	b, _ := ByName("carthage")
	cal := b.Calibration
	g2, _ := cal.Gate2Q(0, 1)
	for _, c := range []struct {
		qubits []int
		want   float64
	}{
		{[]int{3}, cal.Gates1Q[3].Error},
		{[]int{1, 0}, g2.Error},
		{[]int{len(cal.Gates1Q)}, 0}, // outside the register
		{[]int{-1}, 0},
		{[]int{0, 6}, 0}, // uncoupled
		{[]int{0, 1, 2}, 0},
		{nil, 0},
	} {
		if got := cal.GateError(c.qubits); got != c.want {
			t.Errorf("GateError(%v) = %v, want %v", c.qubits, got, c.want)
		}
	}
	if cal.Gates1Q[3].Error == 0 || g2.Error == 0 {
		t.Fatal("want nonzero calibrated errors")
	}
}

// TestLookupsShareBackends pins the memoized catalog: lookups return the
// same read-only backend values, and Catalog's slice is the caller's own.
func TestLookupsShareBackends(t *testing.T) {
	a, err := ByName("kyiv")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("kyiv")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("two ByName lookups returned different backends")
	}
	all, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range all {
		found = found || c == a
	}
	if !found {
		t.Fatal("Catalog does not hold the backend ByName returned")
	}
	all[0] = nil
	again, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if again[0] == nil {
		t.Fatal("writing to one Catalog slice changed the next one")
	}
	i1, err := IonBackend()
	if err != nil {
		t.Fatal(err)
	}
	i2, err := IonBackend()
	if err != nil {
		t.Fatal(err)
	}
	if i1 != i2 {
		t.Fatal("two IonBackend calls returned different backends")
	}
}

// TestConstructorsRejectBrokenCalibration: the executors trust a
// backend's calibration, so every constructor must refuse a broken one.
// The catalog and IonBackend build through newBackend, Drifted checks
// its input and builds through it, and UnmarshalJSON parses the wire
// format into it; each rejects every breakage below, and the shared
// backends they hand out all validate.
func TestConstructorsRejectBrokenCalibration(t *testing.T) {
	src, err := ByName("eldorado")
	if err != nil {
		t.Fatal(err)
	}
	breakages := map[string]func(c *Calibration){
		"negative T1":     func(c *Calibration) { c.Qubits[0].T1 = -1 },
		"zero T2":         func(c *Calibration) { c.Qubits[1].T2 = 0 },
		"readout above 1": func(c *Calibration) { c.Qubits[2].ReadoutError = 1.5 },
		"short 1q list":   func(c *Calibration) { c.Gates1Q = c.Gates1Q[:1] },
		"missing 2q edge": func(c *Calibration) { delete(c.Gates2Q, src.Topology.Edges()[0]) },
	}
	for name, brk := range breakages {
		cal := &Calibration{
			Qubits:  append([]QubitCalibration(nil), src.Calibration.Qubits...),
			Gates1Q: append([]GateCalibration(nil), src.Calibration.Gates1Q...),
			Gates2Q: make(map[Edge]GateCalibration, len(src.Calibration.Gates2Q)),
		}
		for e, g := range src.Calibration.Gates2Q {
			cal.Gates2Q[e] = g
		}
		brk(cal)
		if _, err := newBackend("broken", Superconducting, src.Topology, cal); err == nil {
			t.Errorf("%s: newBackend accepted it", name)
		}
		broken := &Backend{Name: "broken", Architecture: Superconducting, Topology: src.Topology, Calibration: cal}
		if _, err := Drifted(broken, 0.1, 1); err == nil {
			t.Errorf("%s: Drifted accepted it", name)
		}
		w := backendWire{
			Name:         "broken",
			Architecture: Superconducting,
			NumQubits:    src.N(),
			Calibration:  calibrationWire{Qubits: cal.Qubits, Gates1Q: cal.Gates1Q, Gates2Q: map[string]GateCalibration{}},
		}
		for _, e := range src.Topology.Edges() {
			w.Edges = append(w.Edges, [2]int{e.A, e.B})
			if g, ok := cal.Gates2Q[e]; ok {
				w.Calibration.Gates2Q[edgeKey(e)] = g
			}
		}
		data, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var back Backend
		if err := json.Unmarshal(data, &back); err == nil {
			t.Errorf("%s: UnmarshalJSON accepted it", name)
		}
	}
	all, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	ion, err := IonBackend()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range append(all, ion) {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

package runledger

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata goldens")

// fixtureRecords is a deterministic two-record ledger exercising every
// field group: identity, stages, ground-truth quality, spectra.
func fixtureRecords() []Record {
	return []Record{
		{
			Time:        "2026-08-08T12:00:00Z",
			Tool:        "qbeep",
			GoVersion:   "go1.24",
			Revision:    "d4bdf6f",
			TraceID:     7,
			Backend:     "istanbul",
			Circuit:     "bv_8",
			CircuitHash: "a1b2c3d4e5f6",
			Lambda:      1.25,
			Shots:       1024,
			Stages: []Stage{
				{Name: "load", WallS: 0.002},
				{Name: "mitigate", WallS: 0.031},
			},
			Quality: Quality{
				HellingerShift:     0.18,
				HellingerRaw:       0.42,
				HellingerMitigated: 0.21,
				FidelityRaw:        0.80,
				FidelityMitigated:  0.95,
				PSTRaw:             0.61,
				PSTMitigated:       0.83,
				PSTImprovement:     1.36,
				IST:                9.5,
				PosteriorEntropy:   1.7,
				Iterations:         12,
				Converged:          true,
				SpectrumRef:        "expected",
				SpectrumBefore:     []float64{0.61, 0.25, 0.1, 0.04},
				SpectrumAfter:      []float64{0.83, 0.12, 0.04, 0.01},
			},
		},
		{
			Tool:    "qbeep-sim",
			Backend: "almaden",
			Circuit: "ghz_3",
			Lambda:  0.8,
			Shots:   256,
			Quality: Quality{HellingerShift: 0.05, SpectrumRef: "mode"},
		},
	}
}

// TestNDJSONRoundTripGolden pins the on-disk NDJSON encoding (one
// compact JSON object per line, omitempty optionals) and the
// Read ∘ Write identity, including Writer-stamped Schema/Seq.
func TestNDJSONRoundTripGolden(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := fixtureRecords()
	for i := range recs {
		if err := w.Append(&recs[i]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	golden := filepath.Join("testdata", "ledger.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("NDJSON encoding drifted from golden:\n got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(back, recs) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, recs)
	}
	for i, r := range back {
		if r.Schema != SchemaVersion || r.Seq != int64(i) {
			t.Errorf("record %d: schema=%d seq=%d, want schema=%d seq=%d", i, r.Schema, r.Seq, SchemaVersion, i)
		}
	}
}

// TestCreateAppendsAndResumesSeq re-opens an on-disk ledger and checks
// Seq numbering continues where the previous process stopped.
func TestCreateAppendsAndResumesSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.ndjson")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&Record{Tool: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(&Record{Tool: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != 0 || recs[1].Seq != 1 {
		t.Fatalf("want 2 records with seq 0,1; got %+v", recs)
	}
	if recs[0].Tool != "a" || recs[1].Tool != "b" {
		t.Fatalf("append order lost: %+v", recs)
	}
}

func TestReadRejectsMalformedLine(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("{\"schema\":1}\nnot json\n"))); err == nil {
		t.Fatal("want error for malformed line")
	}
	if _, err := Read(bytes.NewReader([]byte("{\"schema\":99}\n"))); err == nil {
		t.Fatal("want error for newer schema")
	}
}

// TestReadLegacyStageCPU: stages once carried a never-filled cpu_s
// field; ledgers written then still read, the field ignored.
func TestReadLegacyStageCPU(t *testing.T) {
	const old = `{"schema":1,"tool":"qbeep","stages":[{"name":"mitigate","wall_s":0.031,"cpu_s":0.03}],"quality":{"hellinger_shift":0.1}}`
	recs, err := Read(bytes.NewReader([]byte(old + "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Stages) != 1 || recs[0].Stages[0].WallS != 0.031 {
		t.Fatalf("legacy record read as %+v", recs)
	}
}

func TestHashBytes(t *testing.T) {
	h := HashBytes([]byte("OPENQASM 2.0;"))
	if len(h) != 12 {
		t.Fatalf("hash length = %d, want 12", len(h))
	}
	if h == HashBytes([]byte("OPENQASM 3.0;")) {
		t.Fatal("distinct sources must hash differently")
	}
	if h != HashBytes([]byte("OPENQASM 2.0;")) {
		t.Fatal("hash must be deterministic")
	}
}

func TestFilterAndSeries(t *testing.T) {
	recs := fixtureRecords()
	if got := (Filter{Backend: "istanbul"}).Apply(recs); len(got) != 1 || got[0].Circuit != "bv_8" {
		t.Fatalf("backend filter: %+v", got)
	}
	if got := (Filter{Circuit: "a1b2c3d4e5f6"}).Apply(recs); len(got) != 1 {
		t.Fatalf("hash filter should match circuit_hash: %+v", got)
	}
	if got := Series(recs, MetricPSTImprovement); len(got) != 1 || got[0] != 1.36 {
		t.Fatalf("pst_improvement series: %v", got)
	}
	if got := Series(recs, MetricHellingerShift); len(got) != 2 {
		t.Fatalf("hellinger_shift series should cover both records: %v", got)
	}
	if got := Series(recs, MetricMitigateWallS); len(got) != 1 || got[0] != 0.031 {
		t.Fatalf("mitigate_wall_s series: %v", got)
	}
}

func TestAggregate(t *testing.T) {
	recs := fixtureRecords()
	groups := Aggregate(recs, ByBackend)
	if len(groups) != 2 {
		t.Fatalf("want 2 backend groups, got %+v", groups)
	}
	// Sorted by backend: almaden before istanbul.
	if groups[0].Backend != "almaden" || groups[1].Backend != "istanbul" {
		t.Fatalf("group order: %+v", groups)
	}
	ist := groups[1].Metrics[MetricLambda]
	if ist.N != 1 || ist.Mean != 1.25 {
		t.Fatalf("istanbul lambda stats: %+v", ist)
	}
	if _, ok := groups[0].Metrics[MetricPSTImprovement]; ok {
		t.Fatal("almaden has no ground truth; pst_improvement must be absent")
	}
}

func TestSummarizeQuantiles(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("stats: %+v", s)
	}
	if s.P95 < 4.5 || s.P95 > 5 {
		t.Fatalf("p95 = %v, want in (4.5, 5]", s.P95)
	}
}

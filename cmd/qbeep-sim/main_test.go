package main

import (
	"os"
	"path/filepath"
	"testing"

	"qbeep/internal/obs"
	"qbeep/internal/runledger"
	"qbeep/internal/tracefile"
)

// TestSimulateLedgerJoinsTrace runs the induction with both -trace and
// -run-ledger: the record carries the "qbeep.pipeline" trace ID, and its
// simulate stage's wall_s is exactly that span's duration.
func TestSimulateLedgerJoinsTrace(t *testing.T) {
	dir := t.TempDir()
	const src = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
`
	tracePath := filepath.Join(dir, "run.ndjson")
	ledgerPath := filepath.Join(dir, "ledger.ndjson")
	tf := obs.TraceFlags{Path: tracePath}
	stopTrace, err := tf.Start()
	if err != nil {
		t.Fatal(err)
	}
	lf := obs.LedgerFlags{Path: ledgerPath}
	stopLedger, err := lf.Start()
	if err != nil {
		stopTrace()
		t.Fatal(err)
	}
	_, serr := simulate("ghz.qasm", []byte(src), "galway", 512, 1, 1)
	if err := stopTrace(); err != nil {
		t.Fatal(err)
	}
	if err := stopLedger(); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatal(serr)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	forest, err := tracefile.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(forest.Traces))
	}
	root := forest.Traces[0].Root()
	if root == nil || root.Name != "qbeep.pipeline" {
		t.Fatalf("root span = %+v", root)
	}
	recs, err := runledger.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d ledger records, want 1", len(recs))
	}
	r := recs[0]
	if r.Tool != "qbeep-sim" || r.Circuit != "ghz.qasm" || r.Backend != "galway" {
		t.Fatalf("record identity: %+v", r)
	}
	if r.TraceID == 0 || r.TraceID != root.TraceID {
		t.Fatalf("record trace %d, pipeline trace %d", r.TraceID, root.TraceID)
	}
	if len(r.Stages) != 1 || r.Stages[0].Name != "simulate" {
		t.Fatalf("stages = %+v", r.Stages)
	}
	if got, want := r.Stages[0].WallS, root.Duration.Seconds(); got != want {
		t.Fatalf("simulate wall_s = %v, pipeline span says %v", got, want)
	}
}

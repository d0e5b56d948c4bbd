package core

import (
	"context"
	"strings"
	"testing"

	"qbeep/internal/bitstring"
)

func dotGraph(t *testing.T) *StateGraph {
	t.Helper()
	d := bitstring.NewDist(3)
	d.Add(0b000, 80)
	d.Add(0b001, 12)
	d.Add(0b011, 8)
	g, err := BuildStateGraphCtx(context.Background(), d, PoissonEdges{Lambda: 1}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWriteDOT(t *testing.T) {
	g := dotGraph(t)
	var b strings.Builder
	if err := g.WriteDOT(&b, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"graph stategraph", "000", "001", "011", "--", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in DOT:\n%s", want, out)
		}
	}
	if strings.Count(out, "--") != g.NumEdges() {
		t.Errorf("edge lines %d want %d", strings.Count(out, "--"), g.NumEdges())
	}
}

func TestWriteDOTEdgeCap(t *testing.T) {
	g := dotGraph(t)
	var b strings.Builder
	if err := g.WriteDOT(&b, 1); err != nil {
		t.Fatal(err)
	}
	if strings.Count(b.String(), "--") != 1 {
		t.Errorf("cap ignored: %s", b.String())
	}
}

func TestStats(t *testing.T) {
	g := dotGraph(t)
	s := g.Stats()
	if s.Vertices != 3 || s.Edges != g.NumEdges() || s.Total != 100 {
		t.Errorf("stats %+v", s)
	}
	if !strings.Contains(s.String(), "3 vertices") {
		t.Errorf("String: %s", s)
	}
}

// TestWriteDOTEdgeCapTies cuts the cap inside a tie group: weights take
// one value per distance, so the 12 distance-1 edges of a full 3-cube
// all tie, and a cap of 5 must keep the first five of them in ascending
// (a, b) order — on every run and for every worker count.
func TestWriteDOTEdgeCapTies(t *testing.T) {
	d := bitstring.NewDist(3)
	for v := bitstring.BitString(0); v < 8; v++ {
		d.Add(v, float64(10+v))
	}
	want := []string{"n0 -- n1", "n0 -- n2", "n0 -- n4", "n1 -- n3", "n1 -- n5"}
	for _, w := range []int{1, 2, 3} {
		g, err := BuildStateGraphCtx(context.Background(), d, PoissonEdges{Lambda: 1}, 0.1, w)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() != 24 {
			t.Fatalf("want 12 distance-1 and 12 distance-2 edges, got %d", g.NumEdges())
		}
		var b strings.Builder
		if err := g.WriteDOT(&b, len(want)); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(b.String(), "\n") {
			if i := strings.Index(line, " ["); strings.Contains(line, "--") && i > 0 {
				got = append(got, strings.TrimSpace(line[:i]))
			}
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("workers=%d: capped edges %v want %v", w, got, want)
		}
	}
}

package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

func TestRunReportRoundTrip(t *testing.T) {
	cfg := QuickConfig()
	started := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	r := NewRunReport(cfg, started)
	r.addFigure("1", 150*time.Millisecond, nil)
	r.addFigure("7", 2*time.Second, errors.New("induction failed"))
	r.Finalize()

	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if back.Seed != cfg.Seed || back.Shots != cfg.Shots || back.Scale != cfg.Scale {
		t.Fatalf("config fields lost: %+v", back)
	}
	if len(back.Figures) != 2 {
		t.Fatalf("got %d figures", len(back.Figures))
	}
	if back.Figures[0].Status != "ok" || back.Figures[0].ElapsedNS != 150_000_000 {
		t.Fatalf("figure 0 = %+v", back.Figures[0])
	}
	if back.Figures[1].Status != "error" || back.Figures[1].Error == "" {
		t.Fatalf("figure 1 = %+v", back.Figures[1])
	}
	if want := int64(2_150_000_000); back.TotalElapsedNS != want {
		t.Fatalf("total = %d, want %d", back.TotalElapsedNS, want)
	}
	if back.Metrics == nil {
		t.Fatal("metrics snapshot missing")
	}
}

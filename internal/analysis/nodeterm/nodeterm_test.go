package nodeterm_test

import (
	"testing"

	"qbeep/internal/analysis/analysistest"
	"qbeep/internal/analysis/nodeterm"
)

func TestNodeterm(t *testing.T) {
	analysistest.Run(t, nodeterm.Analyzer, "statevector", "par", "other")
}

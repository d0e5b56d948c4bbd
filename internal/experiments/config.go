// Package experiments reproduces every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the index). Each FigureN runner
// generates its workload, executes it on the synthetic backend fleet,
// applies Q-BEEP and the HAMMER baseline, and prints the same rows/series
// the paper plots.
package experiments

import (
	"fmt"
	"io"

	"qbeep/internal/core"
	"qbeep/internal/mathx"
)

// Config controls workload sizes and reporting for all runners.
type Config struct {
	// Seed drives every stochastic choice; equal seeds give identical
	// tables.
	Seed uint64
	// Shots per circuit induction (default 4096, the common IBMQ setting).
	Shots int
	// Scale in (0, 1] shrinks corpus sizes proportionally (circuit counts,
	// machine sweeps) so the full pipeline can run quickly; 1 reproduces
	// the paper-sized corpora.
	Scale float64
	// Iterations overrides the flow-iteration count for every Q-BEEP run
	// (0 keeps the paper's 20-iteration schedule).
	Iterations int
	// ConvergeTol, when > 0, stops each mitigation early once the
	// per-iteration Hellinger delta falls below it. The paper figures use
	// the fixed schedule (0).
	ConvergeTol float64
	// TopK, when > 0, runs every mitigation in approximate mode keeping
	// only the k heaviest edges per vertex. 0 is the exact engine.
	TopK int
	// Batch, when > 1, splits every induction's shot loop into that many
	// blocks fanned across the worker pool (noise.Executor.ExecuteCtx).
	// Counts depend on (Seed, Batch) but not on worker count; 0 or 1 is
	// the serial shot loop.
	Batch int
	// Out receives the printed tables; nil discards them.
	Out io.Writer
}

// DefaultConfig returns the paper-sized configuration.
func DefaultConfig() Config {
	return Config{Seed: 20230617, Shots: 4096, Scale: 1}
}

// QuickConfig returns a configuration small enough for tests and smoke
// runs.
func QuickConfig() Config {
	return Config{Seed: 20230617, Shots: 1024, Scale: 0.05}
}

func (c *Config) normalize() error {
	if c.Shots <= 0 {
		c.Shots = 4096
	}
	if c.Scale <= 0 || c.Scale > 1 {
		return fmt.Errorf("experiments: scale %v outside (0,1]", c.Scale)
	}
	if c.Iterations < 0 {
		return fmt.Errorf("experiments: iterations %d must be >= 0", c.Iterations)
	}
	if c.ConvergeTol < 0 {
		return fmt.Errorf("experiments: converge tolerance %v must be >= 0", c.ConvergeTol)
	}
	if c.TopK < 0 {
		return fmt.Errorf("experiments: top-k %d must be >= 0", c.TopK)
	}
	if c.Batch < 0 {
		return fmt.Errorf("experiments: batch %d must be >= 0", c.Batch)
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return nil
}

// mitigateOptions returns the core options every runner hands to
// Mitigate: the paper defaults with the config's overrides applied.
// Ablation rows that sweep these knobs themselves build their own.
func (c *Config) mitigateOptions() core.Options {
	opts := core.NewOptions()
	if c.Iterations > 0 {
		opts.Iterations = c.Iterations
	}
	opts.ConvergeTol = c.ConvergeTol
	opts.TopK = c.TopK
	return opts
}

// scaled returns max(minimum, round(n·Scale)).
func (c *Config) scaled(n, minimum int) int {
	v := int(float64(n)*c.Scale + 0.5)
	if v < minimum {
		return minimum
	}
	return v
}

// rng returns the root generator for a runner, namespaced by figure id so
// runners are independent of invocation order.
func (c *Config) rng(figure uint64) *mathx.RNG {
	return mathx.NewRNG(c.Seed ^ (figure * 0x9e3779b97f4a7c15))
}

func (c *Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// Command qbeep mitigates a measurement-counts file with Q-BEEP.
//
// The counts file is either a bare JSON object mapping bit-strings to
// counts (the shape vendor SDKs emit) or the metadata envelope written by
// qbeep-sim -meta, which already carries the λ estimate:
//
//	{"0101": 3812, "0111": 120, "0001": 88}
//	{"backend": "istanbul", "lambda": 1.31, "counts": {"0101": 3812}}
//
// λ is supplied either directly (-lambda) or estimated from an OpenQASM
// 2.0 circuit plus a named synthetic backend (-qasm, -backend), which is
// the paper's pre-induction Eq. 2 path.
//
// With -trace the run writes its span tree (rooted at "qbeep.pipeline",
// with per-iteration mitigation children carrying flow/Hellinger attrs)
// as NDJSON for offline analysis by cmd/qbeep-trace.
//
// Usage:
//
//	qbeep -counts counts.json -lambda 1.4
//	qbeep -counts counts.json -qasm circuit.qasm -backend istanbul
//	qbeep -counts counts.json -lambda 1.4 -trace run.ndjson && qbeep-trace run.ndjson
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"qbeep"
	"qbeep/internal/bitstring"
	"qbeep/internal/buildinfo"
	"qbeep/internal/core"
	"qbeep/internal/obs"
	"qbeep/internal/results"
	"qbeep/internal/runledger"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qbeep:", err)
		os.Exit(1)
	}
}

// config carries the parsed flags into the traced pipeline body.
type config struct {
	countsPath  string
	lambda      float64
	qasmPath    string
	backend     string
	iterations  int
	epsilon     float64
	convergeTol float64
	dotPath     string
	outPath     string
}

func run() error {
	var (
		countsPath  = flag.String("counts", "", "path to counts JSON (required)")
		lambda      = flag.Float64("lambda", -1, "Poisson rate λ (skip estimation)")
		qasmPath    = flag.String("qasm", "", "OpenQASM 2.0 circuit for λ estimation")
		backend     = flag.String("backend", "", "backend name for λ estimation (see qbeep-backends)")
		iterations  = flag.Int("iterations", 20, "state-graph update iterations")
		epsilon     = flag.Float64("epsilon", 0.05, "edge threshold ε")
		convergeTol = flag.Float64("converge-tol", 0, "stop early when the per-iteration Hellinger delta falls below this (0 = fixed schedule)")
		dotPath     = flag.String("dot", "", "also write the pre-mitigation state graph as Graphviz DOT")
		outPath     = flag.String("o", "", "output path (default stdout)")
		traceFlags  = obs.AddTraceFlags(nil)
		ledgerFlags = obs.AddLedgerFlags(nil)
		logFlags    = obs.AddLogFlags(nil)
		version     = buildinfo.AddVersionFlag(nil)
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Summary("qbeep"))
		return nil
	}
	if err := logFlags.Apply(os.Stderr); err != nil {
		return err
	}
	if *countsPath == "" {
		return fmt.Errorf("-counts is required")
	}
	stopTrace, err := traceFlags.Start()
	if err != nil {
		return err
	}
	stopLedger, err := ledgerFlags.Start()
	if err != nil {
		stopTrace()
		return err
	}
	err = pipeline(config{
		countsPath:  *countsPath,
		lambda:      *lambda,
		qasmPath:    *qasmPath,
		backend:     *backend,
		iterations:  *iterations,
		epsilon:     *epsilon,
		convergeTol: *convergeTol,
		dotPath:     *dotPath,
		outPath:     *outPath,
	})
	// The sinks must flush even when the pipeline failed — a partial trace
	// or ledger still analyzes — and their own errors surface only on
	// success.
	if terr := stopTrace(); err == nil {
		err = terr
	}
	if lerr := stopLedger(); err == nil {
		err = lerr
	}
	return err
}

// pipeline runs the mitigation workflow under the "qbeep.pipeline" root
// span: loading counts, resolving λ, the optional DOT dump, mitigation,
// and output. Loading, estimation and mitigation each run under a child
// span ("qbeep.load", "qbeep.estimate", "qbeep.mitigate") whose duration
// is the wall time of the matching run-ledger stage.
func pipeline(cfg config) error {
	ctx, sp := obs.Start(context.Background(), "qbeep.pipeline")
	// Ending via defer keeps the span from leaking on the many error
	// returns (qbeep-lint spanend); attributes set below still precede it.
	defer sp.End()

	var stages []runledger.Stage
	file, err := stage(ctx, &stages, "load", func(context.Context) (*results.File, error) {
		return results.Load(cfg.countsPath)
	})
	if err != nil {
		return err
	}
	counts := file.Counts

	lam := cfg.lambda
	if lam < 0 && file.Lambda > 0 {
		// The counts envelope already carries a pre-induction estimate
		// (qbeep-sim -meta writes it).
		lam = file.Lambda
		obs.Logger().Info("using lambda from counts envelope", "lambda", lam, "path", cfg.countsPath)
	}
	var qasmSrc []byte
	if lam < 0 {
		if cfg.qasmPath == "" || cfg.backend == "" {
			return fmt.Errorf("provide -lambda, a counts envelope with lambda, or -qasm and -backend")
		}
		src, err := os.ReadFile(cfg.qasmPath)
		if err != nil {
			return err
		}
		qasmSrc = src
		est, err := stage(ctx, &stages, "estimate", func(ctx context.Context) (qbeep.Lambda, error) {
			return qbeep.EstimateLambdaQASMCtx(ctx, string(src), cfg.backend)
		})
		if err != nil {
			return err
		}
		lam = est.Total()
		obs.Logger().Info("estimated lambda",
			"lambda", lam, "t1", est.T1, "t2", est.T2, "gates", est.Gates, "schedule_s", est.Time)
	}

	if cfg.dotPath != "" {
		dist, err := bitstring.FromStringCounts(counts)
		if err != nil {
			return err
		}
		g, err := core.BuildStateGraphCtx(ctx, dist, core.PoissonEdges{Lambda: lam}, cfg.epsilon, 0)
		if err != nil {
			return err
		}
		f, err := os.Create(cfg.dotPath)
		if err != nil {
			return err
		}
		if err := g.WriteDOT(f, 200); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		obs.Logger().Info("wrote state graph", "stats", g.Stats().String(), "path", cfg.dotPath)
	}

	opts := qbeep.Options{
		Iterations:  cfg.iterations,
		Epsilon:     cfg.epsilon,
		ConvergeTol: cfg.convergeTol,
	}
	var qstats qbeep.QualityStats
	if obs.RunLedgerEnabled() {
		opts.OnQuality = func(q qbeep.QualityStats) { qstats = q }
	}
	mitigated, err := stage(ctx, &stages, "mitigate", func(ctx context.Context) (qbeep.Counts, error) {
		return qbeep.MitigateCtx(ctx, counts, lam, opts)
	})
	if err != nil {
		return err
	}
	sp.SetAttr("counts", cfg.countsPath)
	sp.SetAttr("lambda", lam)
	sp.SetAttr("iterations", cfg.iterations)
	if obs.RunLedgerEnabled() {
		recordLedger(ctx, cfg, file, qasmSrc, lam, qstats, stages)
	}
	out, err := json.MarshalIndent(mitigated, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if cfg.outPath == "" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(cfg.outPath, out, 0o644)
}

// stage runs one pipeline stage under the child span "qbeep.<name>" and
// appends the span's duration to stages as the run-ledger stage name, so
// trace and ledger read one clock.
func stage[T any](ctx context.Context, stages *[]runledger.Stage, name string, fn func(context.Context) (T, error)) (T, error) {
	ctx, sp := obs.Start(ctx, "qbeep."+name)
	v, err := fn(ctx)
	*stages = append(*stages, runledger.Stage{Name: name, WallS: sp.End().Seconds()})
	return v, err
}

// recordLedger assembles and appends this run's quality record. The
// circuit identity prefers the counts envelope's name, then the QASM
// path; the hash covers the QASM source when λ was estimated from one,
// otherwise the counts file itself.
func recordLedger(ctx context.Context, cfg config, file *results.File, qasmSrc []byte, lam float64, q qbeep.QualityStats, stages []runledger.Stage) {
	circuit := file.Circuit
	if circuit == "" && cfg.qasmPath != "" {
		circuit = filepath.Base(cfg.qasmPath)
	}
	if circuit == "" {
		circuit = filepath.Base(cfg.countsPath)
	}
	hashSrc := qasmSrc
	if len(hashSrc) == 0 {
		if raw, err := os.ReadFile(cfg.countsPath); err == nil {
			hashSrc = raw
		} else {
			hashSrc = []byte(circuit)
		}
	}
	backend := cfg.backend
	if backend == "" {
		backend = file.Backend
	}
	shots := float64(file.Shots)
	if shots <= 0 {
		for _, c := range file.Counts {
			shots += c
		}
	}
	rec := runledger.Record{
		Tool:        "qbeep",
		TraceID:     obs.TraceIDFrom(ctx),
		Backend:     backend,
		Circuit:     circuit,
		CircuitHash: runledger.HashBytes(hashSrc),
		Lambda:      lam,
		Shots:       shots,
		Stages:      stages,
		Quality:     q,
	}
	if err := obs.RecordRun(&rec); err != nil {
		obs.Logger().Warn("run-ledger append failed", "err", err)
	}
}

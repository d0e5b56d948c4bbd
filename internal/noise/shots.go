package noise

import (
	"context"
	"runtime"
	"slices"

	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
	"qbeep/internal/par"
)

// The shot engine is the one shot loop behind both samplers in this
// package (the failure-event Executor and the sampled half of
// DensityExecutor.ExecuteExact). Its contract:
//
//   - One run draws base := rng.Uint64() from the caller's generator and
//     nothing else, and shot s always samples from stream (base, s)
//     (mathx.RNG.ReseedStream). A shot's outcome is therefore a function
//     of (seed, s) alone.
//   - Shots split into contiguous ranges, one per shard; shot s writes
//     its outcome to slot s of one run-wide outcome slice, and the merge
//     sorts that slice and counts its runs into an ascending Dist. The
//     slice is the same at every shard count, so counts depend on the
//     seed alone, never on GOMAXPROCS.
//   - The shard count is derived from GOMAXPROCS and the run's work
//     (shots × per-shot cost), at least shotParMinWork units per shard.
//     There is no knob.
//   - A shard checks ctx between shotChunk-shot chunks, never per shot,
//     so a cancelled run stops within one chunk per shard.

// shotChunk is the number of shots a shard samples between ctx checks.
const shotChunk = 256

// shotParMinWork is the least work, in per-shot cost units (about one
// RNG draw or one amplitude update each), that earns a shard of its own:
// below it a goroutine's start-up and the extra merge cost more than the
// shard saves.
const shotParMinWork = 1 << 14

// shotShardsOverride, when positive, replaces the derived shard count.
// It is the tests' seam onto the shard matrix; nothing else sets it.
var shotShardsOverride int

// shotShards returns the shard count for shots shots of cost units each.
func shotShards(shots, cost int) int {
	if shotShardsOverride > 0 {
		return min(shotShardsOverride, shots)
	}
	return max(1, min(shots*max(cost, 1)/shotParMinWork, runtime.GOMAXPROCS(0), shots))
}

// shotSource is one sampler on the engine: sampleShots writes the
// outcome of each shot s in [lo, hi) to a.out[s], reseeding a.rng to
// stream (base, s) before it.
type shotSource interface {
	sampleShots(a *shotArena, base uint64, lo, hi int) error
}

// shotArena is one shard's scratch for one run: its stream generator,
// the run's outcome slice and its error.
//
//qbeep:pooled
type shotArena struct {
	rng mathx.RNG
	out []bitstring.BitString
	err error
}

// shotEngine fans one shotSource's shots over par.Shards. Each sampling
// call builds its own engine, so an engine runs one sampling.
type shotEngine struct {
	shards *par.Shards
	arenas []*shotArena
	out    []bitstring.BitString // shot s's outcome, slot s

	// One run's arguments, read by the shards.
	ctx   context.Context
	src   shotSource
	base  uint64
	width int
	shots int
	n     int
}

// run samples shots width-bit outcomes from src, each costing about cost
// work units, and returns their merged counts.
func (e *shotEngine) run(ctx context.Context, src shotSource, width, shots, cost int, rng *mathx.RNG) (*bitstring.Dist, error) {
	e.n = shotShards(shots, cost)
	e.out = make([]bitstring.BitString, shots)
	e.arenas = make([]*shotArena, e.n)
	for k := range e.arenas {
		e.arenas[k] = &shotArena{out: e.out}
	}
	e.shards = par.NewShards(e.n, e.runShard)
	e.ctx, e.src, e.width, e.shots = ctx, src, width, shots
	e.base = rng.Uint64()
	err := e.shards.Run(ctx, e.n)
	for _, a := range e.arenas {
		if err == nil {
			err = a.err
		}
	}
	if err != nil {
		return nil, err
	}
	return e.merge(), nil
}

// runShard samples shard k's contiguous shot range in ctx-checked chunks.
func (e *shotEngine) runShard(k int) {
	a := e.arenas[k]
	lo, hi := par.Range(k, e.n, e.shots)
	for c := lo; c < hi; c += shotChunk {
		if a.err = e.ctx.Err(); a.err != nil {
			return
		}
		if a.err = e.src.sampleShots(a, e.base, c, min(c+shotChunk, hi)); a.err != nil {
			return
		}
	}
}

// merge sorts the run's outcomes and counts each run of equal values
// into the ascending result. Counts are integral, so the totals are
// exact and the result does not depend on how the shots were split.
func (e *shotEngine) merge() *bitstring.Dist {
	slices.Sort(e.out)
	counts := bitstring.NewDist(e.width)
	for i, j := 0, 0; i < len(e.out); i = j {
		for j = i + 1; j < len(e.out) && e.out[j] == e.out[i]; j++ {
		}
		counts.Add(e.out[i], float64(j-i))
	}
	return counts
}

// cumTable is the one cumulative draw table of every sampler: a running
// sum of non-negative weights, from which draw picks index i with
// probability w_i / total.
type cumTable []float64

// accumulate turns the weights w into their running sum in place.
func accumulate(w []float64) cumTable {
	var acc float64
	for i, v := range w {
		acc += v
		w[i] = acc
	}
	return cumTable(w)
}

// distTable returns d's outcomes, ascending, and their cumulative table.
func distTable(d *bitstring.Dist) ([]bitstring.BitString, cumTable) {
	w := make([]float64, 0, d.Support())
	d.Each(func(_ bitstring.BitString, c float64) { w = append(w, c) })
	return d.Outcomes(), accumulate(w)
}

// draw returns the first index whose running weight reaches u·total for
// one uniform u, by binary search.
//
//qbeep:allocfree
//qbeep:noescape rng
func (c cumTable) draw(rng *mathx.RNG) int {
	u := rng.Float64() * c[len(c)-1]
	lo, hi := 0, len(c)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// distSampler draws every shot from one fixed distribution: the sampled
// half of DensityExecutor.ExecuteExact.
type distSampler struct {
	outcomes []bitstring.BitString
	cum      cumTable
}

// sampleShots draws shots [lo, hi) into a.out, shot s from stream
// (base, s).
//
//qbeep:allocfree
func (d *distSampler) sampleShots(a *shotArena, base uint64, lo, hi int) error {
	for s := lo; s < hi; s++ {
		a.rng.ReseedStream(base, uint64(s))
		a.out[s] = d.outcomes[d.cum.draw(&a.rng)]
	}
	return nil
}

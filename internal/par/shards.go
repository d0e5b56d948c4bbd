package par

import (
	"context"
	"fmt"
	"sync"
	"time"

	"qbeep/internal/obs"
)

// Shards is the package's one fan-out: up to Len() shard tasks bound
// once to one function, run together by Run. A Shards value allocates
// only in NewShards, so a kernel that fans out thousands of times per
// second (one flow-iteration phase, one gate) stays allocation-free;
// ForEachCtx binds a fresh one per batch. Per-call arguments travel
// through the owner's fields: fn reads them, and the goroutine starts
// in Run order the owner's writes before every shard.
//
// A Shards value is not safe for concurrent Run calls; an owner that
// runs one kernel at a time (a graph, a state vector) holds one.
type Shards struct {
	fn     func(k int)
	launch []func() // launch[k] runs shard k on its own goroutine
	errs   []error  // per-shard panic slot, cleared by Run
	// durs holds each shard's "par.worker" span duration from the last
	// Run: the span clock is the only one par reads.
	durs []time.Duration
	wg   sync.WaitGroup
	// ctx parents the shards' "par.worker" spans during one Run.
	ctx context.Context
}

// NewShards binds fn to n shard slots (at least one). fn(k) must only
// write state owned by shard k.
func NewShards(n int, fn func(k int)) *Shards {
	if n < 1 {
		n = 1
	}
	s := &Shards{fn: fn, launch: make([]func(), n), errs: make([]error, n), durs: make([]time.Duration, n)}
	for k := range s.launch {
		s.launch[k] = func() {
			defer s.wg.Done()
			s.run(k)
		}
	}
	return s
}

// Len returns the number of bound shard slots.
func (s *Shards) Len() int { return len(s.launch) }

// Elapsed returns how long shard k's "par.worker" span ran in the last
// Run that included it.
func (s *Shards) Elapsed(k int) time.Duration { return s.durs[k] }

// Run executes fn(k) for k in [0, n) — n clamped to [1, Len()] — with
// shard 0 on the calling goroutine and the rest on fresh goroutines, and
// returns once every shard has finished. A shard that panics fails the
// run with an error naming the lowest such shard and its panic value;
// the other shards still complete. When tracing is enabled each shard
// runs under a "par.worker" span parented to the span active in ctx.
//
//qbeep:allocfree
func (s *Shards) Run(ctx context.Context, n int) error {
	if n > len(s.launch) {
		n = len(s.launch)
	}
	if n < 1 {
		n = 1
	}
	s.ctx = ctx
	s.wg.Add(n - 1)
	for k := 1; k < n; k++ {
		go s.launch[k]()
	}
	s.run(0)
	s.wg.Wait()
	s.ctx = nil
	var err error
	for k := 0; k < n; k++ {
		if err == nil {
			err = s.errs[k]
		}
		s.errs[k] = nil
	}
	return err
}

// run executes one shard under its worker span, converting a panic into
// the shard's error slot and recording the span's duration.
func (s *Shards) run(k int) {
	_, sp := obs.Start(s.ctx, "par.worker")
	defer s.endShard(k, &sp)
	defer s.recoverShard(k)
	sp.SetAttr("worker", k)
	s.fn(k)
}

func (s *Shards) endShard(k int, sp *obs.Span) { s.durs[k] = sp.End() }

func (s *Shards) recoverShard(k int) {
	if r := recover(); r != nil {
		s.errs[k] = fmt.Errorf("par: shard %d panicked: %v", k, r)
	}
}

// Range returns shard k's slice [lo, hi) of an even split of [0, total)
// into n contiguous ranges (the last ones may be empty when n does not
// divide total).
//
//qbeep:mustinline
func Range(k, n, total int) (lo, hi int) {
	chunk := (total + n - 1) / n
	lo = k * chunk
	hi = lo + chunk
	if hi > total {
		hi = total
	}
	if lo > total {
		lo = total
	}
	return lo, hi
}

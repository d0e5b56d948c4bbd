// Package a exercises the ctxflow rules: every Background()/TODO() root
// outside package main is flagged, received contexts must be threaded,
// and //qbeep:allow-ctx admits a deliberate root.
package a

import "context"

type sampler struct{}

func (s *sampler) SampleCtx(ctx context.Context, n int) int { _ = ctx; return n }

func runCtx(ctx context.Context, n int) int { _ = ctx; return n }

// Sample is a Background-wrapper twin: a ctx-less function handing a
// fresh root straight to its Ctx variant is flagged like any other root.
func (s *sampler) Sample(n int) int {
	return s.SampleCtx(context.Background(), n) // want `context\.Background\(\) outside package main`
}

// stash assigns the root to a variable first.
func stash(n int) int {
	ctx := context.Background() // want `context\.Background\(\) outside package main`
	return runCtx(ctx, n)
}

// todoRoot mints a TODO root into a non-Ctx callee.
func todoRoot() context.Context {
	return context.TODO() // want `context\.TODO\(\) outside package main`
}

// threaded receives a ctx but mints a fresh root anyway.
func threaded(ctx context.Context, n int) int {
	_ = ctx
	return runCtx(context.Background(), n) // want `context\.Background\(\) inside a function that receives a context`
}

// closureThreaded: the enclosing closure's ctx counts too.
func closureThreaded() func(context.Context) int {
	return func(ctx context.Context) int {
		_ = ctx
		return runCtx(context.Background(), 1) // want `context\.Background\(\) inside a function that receives a context`
	}
}

// afterClosure: leaving a ctx-receiving closure restores the ctx-less
// wording for the rest of the enclosing function.
func afterClosure() int {
	f := func(ctx context.Context) int { return runCtx(ctx, 1) }
	return f(context.TODO()) // want `context\.TODO\(\) outside package main`
}

// allowed is a deliberate root carrying the audited escape hatch.
func allowed() context.Context {
	return context.Background() //qbeep:allow-ctx fixture: deliberate detached root
}

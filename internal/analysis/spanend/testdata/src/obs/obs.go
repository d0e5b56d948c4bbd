// Package obs is a stub of the real observability package: spanend
// matches Start by the import-path base "obs", so the fixtures can
// exercise the analyzer without importing the module tree.
package obs

import "context"

// Span mirrors the value-type span of the real package.
type Span struct {
	ended bool
}

// SetAttr attaches an attribute.
func (s *Span) SetAttr(key string, value any) {
	_, _ = key, value
}

// End completes the span.
func (s *Span) End() {
	s.ended = true
}

// Start begins a span as a child of the one in ctx, mirroring the real
// two-value form.
func Start(ctx context.Context, name string) (context.Context, Span) {
	_ = name
	return ctx, Span{}
}

// TraceFlags mirrors the real flags helper, whose Start method must NOT
// be mistaken for the span constructor.
type TraceFlags struct{}

// Start opens the trace destination.
func (f *TraceFlags) Start() (func() error, error) {
	return func() error { return nil }, nil
}

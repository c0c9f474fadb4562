// Package fixture exercises pinleak: every (*Store).Acquire release
// func and every trace span must reach its release/End on all paths.
// The package is loaded as vup/internal/server so the receiver match
// fires on the local Store mirror; spans come from the real
// vup/internal/obs/trace package.
package server

import (
	"context"
	"errors"

	"vup/internal/obs/trace"
)

// Dataset stands in for etl.VehicleDataset.
type Dataset struct{ ID string }

// Store mirrors the real store's pin contract: Acquire returns the
// dataset, fingerprint, generation, a release func and an error.
type Store struct{ res map[string]*Dataset }

func (s *Store) Acquire(ctx context.Context, id string) (*Dataset, uint64, uint64, func(), error) {
	d, ok := s.res[id]
	if !ok {
		return nil, 0, 0, nil, errors.New("unknown vehicle")
	}
	return d, 0, 0, func() {}, nil
}

// The seeded PR 9 incident: an early return between Acquire and
// release leaks the pin, permanently defeating -resident-budget
// eviction for that vehicle.
func leaky(s *Store, id string) error {
	_, _, _, release, err := s.Acquire(context.Background(), id) // want pinleak "not called on every path"
	if err != nil {
		return err
	}
	if id == "" {
		return errors.New("empty id") // the pin leaks here
	}
	release()
	return nil
}

// defer pairs the pin on every path, early returns included. Silent.
func deferred(s *Store, id string) error {
	_, _, _, release, err := s.Acquire(context.Background(), id)
	if err != nil {
		return err
	}
	defer release()
	if id == "" {
		return errors.New("empty id")
	}
	return nil
}

// Discarding the release func outright can never pair it.
func discarded(s *Store, id string) {
	_, _, _, _, _ = s.Acquire(context.Background(), id) // want pinleak "discarded"
}

// Per-iteration release, with the error path skipping via continue:
// the err != nil refinement knows the release func is nil there.
// This is the /v1/vehicles sweep after its fix. Silent.
func sweep(s *Store, ids []string) int {
	n := 0
	for _, id := range ids {
		d, _, _, release, err := s.Acquire(context.Background(), id)
		if err != nil {
			continue
		}
		if d != nil {
			n++
		}
		release()
	}
	return n
}

// A break between Acquire and release leaks that iteration's pin.
func sweepBreak(s *Store, ids []string) {
	for _, id := range ids {
		_, _, _, release, err := s.Acquire(context.Background(), id) // want pinleak "not called on every path"
		if err != nil {
			continue
		}
		if id == "stop" {
			break // leaks: release skipped
		}
		release()
	}
}

// Returning the release func hands the obligation to the caller
// (the API.vehicle helper shape). Silent.
func handoff(s *Store, id string) (func(), error) {
	_, _, _, release, err := s.Acquire(context.Background(), id)
	if err != nil {
		return nil, err
	}
	return release, nil
}

// A span that an early error return skips past is lost from its trace.
func spanLeak(ctx context.Context, work func() error) error {
	_, sp := trace.Start(ctx, "fixture.work") // want pinleak "not called on every path"
	if err := work(); err != nil {
		return err // the span is never ended
	}
	sp.End()
	return nil
}

// SetError + End on the single exit path. Silent.
func spanClean(ctx context.Context, work func() error) error {
	_, sp := trace.Start(ctx, "fixture.work")
	err := work()
	sp.SetError(err)
	sp.End()
	return err
}

// The middleware shape: a root span from a Collector, End deferred
// right after the start. Silent.
func spanDeferred(ctx context.Context, c *trace.Collector) {
	_, sp := c.StartTrace(ctx, "GET /fixture")
	defer sp.End()
	sp.SetAttrInt("status", 200)
}

// A span captured by a closure escapes: the closure owns the End.
func spanClosure(ctx context.Context) func() {
	_, sp := trace.Start(ctx, "fixture.bg")
	return func() { sp.End() }
}

// panic paths are not leaks: the function never returns through them.
func spanPanic(ctx context.Context, ok bool) {
	_, sp := trace.Start(ctx, "fixture.check")
	if !ok {
		panic("invariant violated")
	}
	sp.End()
}

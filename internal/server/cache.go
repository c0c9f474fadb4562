package server

import (
	"container/list"
	"context"
	"fmt"
	"strconv"
	"sync"

	"vup/internal/core"
	"vup/internal/obs"
	"vup/internal/obs/trace"
)

// Forecast-cache telemetry, on the process-wide registry so the
// binary's GET /metrics exposes the serving-side counterpart of the
// pipeline stage histograms: how often a request was answered from a
// trained artifact instead of retraining.
var (
	cacheHits = obs.Default.Counter(
		"forecast_cache_hits_total",
		"Forecast requests answered from a cached trained artifact.")
	cacheMisses = obs.Default.Counter(
		"forecast_cache_misses_total",
		"Forecast requests that had to train the pipeline.")
	cacheEvictions = obs.Default.Counter(
		"forecast_cache_evictions_total",
		"Cached artifacts dropped for capacity or store-generation staleness.")
	cacheEntriesGauge = obs.Default.Gauge(
		"forecast_cache_entries",
		"Trained artifacts currently cached.")
	cacheCoalesced = obs.Default.Counter(
		"forecast_coalesced_waiters_total",
		"Requests that waited on an identical in-flight training run instead of starting their own.")
)

// CacheStats is a point-in-time reading of one cache's counters.
type CacheStats struct {
	// Hits counts lookups answered from a stored artifact.
	Hits uint64
	// Misses counts lookups that ran the build function.
	Misses uint64
	// Evictions counts entries dropped, for capacity or staleness.
	Evictions uint64
	// Coalesced counts lookups that shared an in-flight build.
	Coalesced uint64
}

// ForecastCache is a bounded LRU cache of trained forecast artifacts
// with request coalescing: concurrent lookups of the same key share a
// single build instead of training in parallel. Keys combine vehicle
// ID, dataset fingerprint and config fingerprint (see cacheKey);
// entries additionally record the store generation they were built
// against and are invalidated when it moves. A nil cache, or one with
// capacity zero, is a transparent bypass — every lookup builds.
type ForecastCache struct {
	capacity int

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	byKey    map[string]*list.Element
	inflight map[string]*flight
	stats    CacheStats
}

// cacheEntry is one stored artifact.
type cacheEntry struct {
	key string
	gen uint64
	val any
}

// flight is one in-progress build; waiters block on done and then
// share val/err. gen records the store generation the build observed:
// a lookup at a newer generation must not coalesce onto it, or it
// would return data from a store state that no longer exists marked
// as cached.
type flight struct {
	done chan struct{}
	gen  uint64
	val  any
	err  error
}

// NewForecastCache returns a cache holding at most capacity trained
// artifacts. capacity <= 0 disables caching and coalescing entirely
// (the -cache-size 0 escape hatch).
func NewForecastCache(capacity int) *ForecastCache {
	if capacity <= 0 {
		return &ForecastCache{}
	}
	return &ForecastCache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element, capacity),
		inflight: make(map[string]*flight),
	}
}

// Enabled reports whether the cache stores anything.
func (c *ForecastCache) Enabled() bool { return c != nil && c.capacity > 0 }

// Len returns the number of cached artifacts.
func (c *ForecastCache) Len() int {
	if !c.Enabled() {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *ForecastCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// DoContext returns the artifact for key, building it with build on a
// miss. gen is the vehicle's store generation the caller observed; an
// entry built against an older generation is evicted and rebuilt.
// Concurrent calls with the same key coalesce onto one build and share
// its result (errors included — errors are never stored) — but only
// when the in-flight build observed the same generation: after a Put,
// a request that saw the new store state starts its own build instead
// of sharing a stale one. The second return reports whether the
// artifact came from cache or a shared in-flight build rather than a
// fresh build.
//
// When ctx carries an active trace span, the lookup is recorded as a
// "cache.lookup" child whose outcome attribute is hit, miss, coalesced
// or bypass, and the build runs under the span's context so training
// stages nest below it. A coalesced waiter honours ctx: on
// cancellation it returns ctx.Err() immediately, leaving the shared
// build running for the remaining waiters.
func (c *ForecastCache) DoContext(ctx context.Context, key string, gen uint64, build func(context.Context) (any, error)) (any, bool, error) {
	ctx, sp := trace.Start(ctx, "cache.lookup")
	if !c.Enabled() {
		sp.SetAttr("outcome", "bypass")
		v, err := build(ctx)
		sp.SetError(err)
		sp.End()
		return v, false, err
	}
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		if e.gen == gen {
			c.ll.MoveToFront(el)
			c.stats.Hits++
			cacheHits.With().Inc()
			v := e.val
			c.mu.Unlock()
			sp.SetAttr("outcome", "hit")
			sp.End()
			return v, true, nil
		}
		if e.gen < gen {
			// Trained against a store state that no longer exists.
			c.removeLocked(el)
		}
		// e.gen > gen: the caller raced a Put and observed an older
		// store state; build for it without evicting the fresher entry
		// (insertLocked refuses the stale insert afterwards).
	}
	if fl, ok := c.inflight[key]; ok && fl.gen == gen {
		c.stats.Coalesced++
		cacheCoalesced.With().Inc()
		c.mu.Unlock()
		sp.SetAttr("outcome", "coalesced")
		// The flight keeps running for its other waiters; a canceled
		// request just stops waiting for it.
		select {
		case <-fl.done:
			sp.SetError(fl.err)
			sp.End()
			return fl.val, true, fl.err
		case <-ctx.Done():
			err := ctx.Err()
			sp.SetError(err)
			sp.End()
			return nil, false, err
		}
	}
	fl := &flight{done: make(chan struct{}), gen: gen}
	// Replacing a same-key flight built against another generation is
	// deliberate: later arrivals at this generation coalesce here, and
	// the old flight's waiters keep their own pointer.
	c.inflight[key] = fl
	c.stats.Misses++
	cacheMisses.With().Inc()
	c.mu.Unlock()
	sp.SetAttr("outcome", "miss")

	finished := false
	defer func() {
		if finished {
			return
		}
		// build panicked: release the waiters with an error so they do
		// not block forever, then let the panic propagate.
		fl.err = fmt.Errorf("server: forecast build for %q panicked", key)
		close(fl.done)
		c.mu.Lock()
		if c.inflight[key] == fl {
			delete(c.inflight, key)
		}
		c.mu.Unlock()
		sp.SetError(fl.err)
		sp.End()
	}()
	fl.val, fl.err = build(ctx)
	finished = true
	close(fl.done)

	c.mu.Lock()
	if c.inflight[key] == fl {
		delete(c.inflight, key)
	}
	if fl.err == nil {
		c.insertLocked(key, gen, fl.val)
	}
	c.mu.Unlock()
	sp.SetError(fl.err)
	sp.End()
	return fl.val, false, fl.err
}

// insertLocked stores an artifact at the LRU front, evicting from the
// back while over capacity. Caller holds mu.
func (c *ForecastCache) insertLocked(key string, gen uint64, val any) {
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		if gen < e.gen {
			// A build that observed an older store state finished after
			// a fresher artifact landed; keep the fresh one.
			return
		}
		e.gen, e.val = gen, val
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, gen: gen, val: val})
	for c.ll.Len() > c.capacity {
		c.removeLocked(c.ll.Back())
	}
	cacheEntriesGauge.With().Set(float64(c.ll.Len()))
}

// removeLocked evicts one entry. Caller holds mu.
func (c *ForecastCache) removeLocked(el *list.Element) {
	c.ll.Remove(el)
	delete(c.byKey, el.Value.(*cacheEntry).key)
	c.stats.Evictions++
	cacheEvictions.With().Inc()
	cacheEntriesGauge.With().Set(float64(c.ll.Len()))
}

// cacheKey builds the cache key for one request: the artifact kind
// (point forecast, interval at a level, evaluation), the vehicle, the
// dataset fingerprint and the canonical config fingerprint. The unit
// separator cannot appear in any component.
func cacheKey(kind, vehicleID string, dataFP uint64, cfg core.Config) string {
	return kind + "\x1f" + vehicleID + "\x1f" + strconv.FormatUint(dataFP, 16) + "\x1f" + cfg.Fingerprint()
}

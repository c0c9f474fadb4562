package server

// Bounded-memory residency: in lazy mode the Store holds a managed
// subset of the fleet in RAM instead of a map populated at boot.
// Datasets fault in on first use through a loader (single-flighted on
// the per-vehicle writer lock), a resident-bytes accountant drives LRU
// eviction of cold datasets under a budget, and in-flight requests pin
// their dataset so eviction never drops a vehicle mid-fit. Datasets
// are immutable while stored, so even a reference that outlives its
// residency stays valid — pins exist to keep the working set stable,
// not to patch memory safety.

import (
	"context"
	"fmt"
	"sync"

	"vup/internal/etl"
	"vup/internal/obs"
	"vup/internal/obs/trace"
)

// Residency telemetry. The gauges track the managed working set; the
// counter measures eviction churn (high churn with a low hit rate
// means the budget is too small for the traffic's working set).
var (
	residentVehicles = obs.Default.Gauge(
		"fstore_resident_vehicles",
		"Vehicle datasets currently resident in the serving store.")
	residentBytesGauge = obs.Default.Gauge(
		"fstore_resident_bytes",
		"Estimated heap bytes of resident vehicle datasets.")
	evictionsTotal = obs.Default.Counter(
		"fstore_evictions_total",
		"Cold datasets evicted from the serving store under the resident budget.")
)

// resident is one vehicle's managed in-memory state.
type resident struct {
	ds   *etl.VehicleDataset
	fp   uint64 // dataset fingerprint, computed once at insert
	size int64  // etl.SizeBytes at insert, the accounting unit
	pins int    // in-flight requests holding the dataset; >0 blocks eviction
	el   *lruElem
}

// lruElem is a node of the store's intrusive recency list (front =
// most recently used). A hand-rolled doubly linked list keeps the
// element embedded in the resident, so touch/evict are pointer moves
// with no container/list type assertions on the hot path.
type lruElem struct {
	id         string
	prev, next *lruElem
}

// lruList is the recency order of resident vehicles.
type lruList struct {
	front, back *lruElem
}

func (l *lruList) pushFront(e *lruElem) {
	e.prev, e.next = nil, l.front
	if l.front != nil {
		l.front.prev = e
	}
	l.front = e
	if l.back == nil {
		l.back = e
	}
}

func (l *lruList) remove(e *lruElem) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *lruList) moveToFront(e *lruElem) {
	if l.front == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// NewLazyStore builds a store that boots from a fleet roster alone:
// ids is the full vehicle list (the fstore manifest), loader faults
// one vehicle's dataset in on first use (fstore.Dir.LoadVehicle), and
// budget bounds the estimated resident bytes — 0 or negative means
// unbounded residency (lazy load without eviction). No dataset is
// decoded here; boot cost is O(roster), not O(fleet data).
func NewLazyStore(ids []string, loader func(id string) (*etl.VehicleDataset, error), budget int64) (*Store, error) {
	if loader == nil {
		return nil, fmt.Errorf("server: lazy store needs a loader")
	}
	s := &Store{
		res:    make(map[string]*resident),
		gens:   make(map[string]uint64),
		known:  make(map[string]bool, len(ids)),
		dirty:  make(map[string]bool),
		loader: loader,
		lru:    &lruList{},
		budget: budget,
	}
	for _, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("server: lazy store roster has an empty vehicle id")
		}
		if s.known[id] {
			return nil, fmt.Errorf("server: lazy store roster lists %q twice", id)
		}
		s.known[id] = true
	}
	return s, nil
}

// Lazy reports whether the store faults datasets in through a loader.
func (s *Store) Lazy() bool { return s.loader != nil }

// Acquire returns one vehicle's dataset pinned against eviction,
// together with its fingerprint and generation (read consistently for
// cache keying) and a release func the caller must invoke when done
// (idempotent). In lazy mode a non-resident vehicle is loaded on miss
// under its per-vehicle writer lock — concurrent requests for the same
// cold vehicle trigger exactly one load. Unknown vehicles fail with
// ErrUnknownVehicle; a loader failure (e.g. a corrupt snapshot) fails
// only this vehicle's acquisition, never the store.
func (s *Store) Acquire(ctx context.Context, id string) (d *etl.VehicleDataset, fp, gen uint64, release func(), err error) {
	if s.loader == nil {
		// Eager store: nothing evicts, so reads stay on the shared
		// lock with a no-op release.
		s.mu.RLock()
		r, ok := s.res[id]
		if !ok {
			s.mu.RUnlock()
			return nil, 0, 0, nil, fmt.Errorf("server: %w: %q", ErrUnknownVehicle, id)
		}
		d, fp, gen = r.ds, r.fp, s.gens[id]
		s.mu.RUnlock()
		return d, fp, gen, func() {}, nil
	}

	s.mu.Lock()
	if r, ok := s.res[id]; ok {
		r.pins++
		s.lru.moveToFront(r.el)
		d, fp, gen = r.ds, r.fp, s.gens[id]
		s.mu.Unlock()
		return d, fp, gen, s.releaseFunc(id), nil
	}
	known := s.known[id]
	s.mu.Unlock()
	if !known {
		return nil, 0, 0, nil, fmt.Errorf("server: %w: %q", ErrUnknownVehicle, id)
	}

	// Single-flight the fault on the vehicle's writer lock: the first
	// requester loads, the rest block here and find it resident.
	s.lockVehicle(id)
	defer s.unlockVehicle(id)
	r, err := s.faultLocked(ctx, id)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	s.mu.Lock()
	d, fp, gen = r.ds, r.fp, s.gens[id]
	s.mu.Unlock()
	return d, fp, gen, s.releaseFunc(id), nil
}

// faultLocked makes id resident through the loader and returns its
// resident entry with one pin already held (so a racing eviction pass
// cannot drop it before the caller uses it). The caller must hold the
// vehicle's writer lock; that is what single-flights concurrent faults
// of the same vehicle.
func (s *Store) faultLocked(ctx context.Context, id string) (*resident, error) {
	// Re-check residency: a racing Acquire (or AppendContext) may have
	// faulted the vehicle in while this caller waited for the lock.
	s.mu.Lock()
	if r, ok := s.res[id]; ok {
		r.pins++
		s.lru.moveToFront(r.el)
		s.mu.Unlock()
		return r, nil
	}
	s.mu.Unlock()

	_, sp := trace.Start(ctx, "store.load")
	sp.SetAttr("vehicle", id)
	d, err := s.loader(id)
	if err == nil {
		err = d.Validate()
	}
	if err == nil && d.VehicleID != id {
		err = fmt.Errorf("loader returned dataset %q", d.VehicleID)
	}
	sp.SetError(err)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("server: load %q: %w", id, err)
	}

	s.mu.Lock()
	r := s.insertLocked(d)
	r.pins++
	s.evictLocked(ctx)
	s.mu.Unlock()
	return r, nil
}

// releaseFunc builds the idempotent unpin closure Acquire hands out.
// A release also runs an eviction pass when the store sits over
// budget: pinned entries are what keeps evictLocked from reclaiming,
// so the moment a pin drains is the moment reclaim can proceed —
// without this the store would stay over budget until the next fault.
func (s *Store) releaseFunc(id string) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			if r, ok := s.res[id]; ok && r.pins > 0 {
				r.pins--
			}
			if s.budget > 0 && s.residentBytes > s.budget {
				s.evictLocked(context.Background())
			}
			s.mu.Unlock()
		})
	}
}

// insertLocked makes d the resident state of its vehicle, reusing the
// existing entry (and its pins) on an in-place update — which is how
// AppendContext and Put swap a new dataset in without invalidating the
// pins in-flight readers hold on the vehicle. Caller holds s.mu.
func (s *Store) insertLocked(d *etl.VehicleDataset) *resident {
	size := d.SizeBytes()
	r, ok := s.res[d.VehicleID]
	if ok {
		s.residentBytes += size - r.size
		r.ds, r.fp, r.size = d, d.Fingerprint(), size
		if r.el != nil {
			s.lru.moveToFront(r.el)
		}
	} else {
		r = &resident{ds: d, fp: d.Fingerprint(), size: size}
		if s.lru != nil {
			r.el = &lruElem{id: d.VehicleID}
			s.lru.pushFront(r.el)
		}
		s.res[d.VehicleID] = r
		s.residentBytes += size
	}
	if s.known == nil {
		s.known = make(map[string]bool)
	}
	s.known[d.VehicleID] = true
	s.updateGaugesLocked()
	return r
}

// evictLocked drops cold residents from the LRU tail until the
// accountant is back under budget. Pinned vehicles are skipped — if
// everything left is pinned the store runs over budget until pins
// drain, which is the documented trade against yanking a dataset out
// from under an in-flight fit. No-op on eager stores and with no
// budget. Caller holds s.mu.
func (s *Store) evictLocked(ctx context.Context) {
	if s.lru == nil || s.budget <= 0 {
		return
	}
	for s.residentBytes > s.budget {
		el := s.lru.back
		for el != nil && s.res[el.id].pins > 0 {
			el = el.prev
		}
		if el == nil {
			return
		}
		r := s.res[el.id]
		_, sp := trace.Start(ctx, "store.evict")
		sp.SetAttr("vehicle", el.id)
		sp.SetAttrInt("bytes", int(r.size))
		sp.End()
		s.lru.remove(el)
		delete(s.res, el.id)
		// An evicted vehicle's appended days live durably in the
		// append log; dropping the dirty mark is safe (reload replays).
		delete(s.dirty, el.id)
		s.residentBytes -= r.size
		evictionsTotal.With().Inc()
		s.updateGaugesLocked()
	}
}

func (s *Store) updateGaugesLocked() {
	residentVehicles.With().Set(float64(len(s.res)))
	residentBytesGauge.With().Set(float64(s.residentBytes))
}

// ResidentStats reports the managed working set: resident vehicle
// count and their estimated bytes.
func (s *Store) ResidentStats() (vehicles int, bytes int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.res), s.residentBytes
}

// DirtyResidents returns the resident datasets whose appended days
// have not yet been folded into their on-disk snapshot — the only
// vehicles a graceful shutdown needs to re-snapshot. Non-resident
// dirty state is already durable in the append log.
func (s *Store) DirtyResidents() []*etl.VehicleDataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*etl.VehicleDataset, 0, len(s.dirty))
	for id := range s.dirty {
		if r, ok := s.res[id]; ok {
			out = append(out, r.ds)
		}
	}
	return out
}

// SetCompactor installs the append-log compaction hook, called after
// every successful AppendContext under that vehicle's writer lock with
// the grown dataset (fstore.Dir.MaybeCompact curried with the
// threshold).
// It reports whether it compacted. Compaction failures are logged, not
// fatal: the append itself is already durable in the log.
func (s *Store) SetCompactor(fn func(*etl.VehicleDataset) (bool, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compact = fn
}

package server

// Residency: the Store holds one vehicle entry per roster ID, and an
// entry's dataset is either resident or not. An eager store is a
// roster whose every entry is resident and that has no budget, so
// nothing ever leaves; a lazy store starts with nothing resident,
// faults datasets in through a loader (single-flighted on the
// per-vehicle writer lock), and a resident-bytes accountant drives LRU
// eviction of cold datasets under a budget. Every acquisition pins its
// vehicle so eviction never drops a dataset mid-fit. Datasets are
// immutable while stored, so even a reference that outlives its
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

// vehicle is one roster entry: the vehicle's generation, which
// survives eviction so a reloaded vehicle keeps its cache keys, and
// its resident state. Entries are never removed from the roster, so a
// *vehicle stays valid for the store's lifetime. All fields are
// guarded by Store.mu.
type vehicle struct {
	id  string
	gen uint64 // mutation counter, bumped by Put and AppendContext
	// ds is the resident dataset; nil means not resident (only on a
	// store with a loader).
	ds   *etl.VehicleDataset
	fp   uint64 // dataset fingerprint, computed once at insert
	size int64  // etl.SizeBytes at insert, the accounting unit
	pins int    // in-flight requests holding the dataset; >0 blocks eviction
	// dirty marks a resident whose appended days are not yet folded
	// into its on-disk snapshot (set by the append-log path, cleared by
	// Put, compaction and eviction).
	dirty bool
	// prev and next link the resident entries into the store's
	// recency list (front = most recently used), so touch and evict
	// are pointer moves.
	prev, next *vehicle
}

// lruList is the recency order of resident vehicles.
type lruList struct {
	front, back *vehicle
}

func (l *lruList) pushFront(v *vehicle) {
	v.prev, v.next = nil, l.front
	if l.front != nil {
		l.front.prev = v
	}
	l.front = v
	if l.back == nil {
		l.back = v
	}
}

func (l *lruList) remove(v *vehicle) {
	if v.prev != nil {
		v.prev.next = v.next
	} else {
		l.front = v.next
	}
	if v.next != nil {
		v.next.prev = v.prev
	} else {
		l.back = v.prev
	}
	v.prev, v.next = nil, nil
}

func (l *lruList) moveToFront(v *vehicle) {
	if l.front == v {
		return
	}
	l.remove(v)
	l.pushFront(v)
}

// newRoster builds a store answering for exactly ids, none of them
// resident yet. Both constructors start here, so both reject an empty
// or repeated vehicle ID.
func newRoster(ids []string) (*Store, error) {
	s := &Store{vehicles: make(map[string]*vehicle, len(ids))}
	entries := make([]vehicle, len(ids)) // one allocation for the whole roster
	for i, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("server: roster has an empty vehicle id")
		}
		if s.vehicles[id] != nil {
			return nil, fmt.Errorf("server: roster lists %q twice", id)
		}
		entries[i].id = id
		s.vehicles[id] = &entries[i]
	}
	return s, nil
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
	s, err := newRoster(ids)
	if err != nil {
		return nil, err
	}
	s.loader, s.budget = loader, budget
	return s, nil
}

// Lazy reports whether the store faults datasets in through a loader.
func (s *Store) Lazy() bool { return s.loader != nil }

// Acquire returns one vehicle's dataset pinned against eviction,
// together with its fingerprint and generation (read consistently for
// cache keying) and a release func the caller must invoke when done
// (idempotent). A non-resident vehicle is loaded on miss under its
// per-vehicle writer lock — concurrent requests for the same cold
// vehicle trigger exactly one load. Unknown vehicles fail with
// ErrUnknownVehicle; a loader failure (e.g. a corrupt snapshot) fails
// only this vehicle's acquisition, never the store.
func (s *Store) Acquire(ctx context.Context, id string) (d *etl.VehicleDataset, fp, gen uint64, release func(), err error) {
	s.mu.Lock()
	v := s.vehicles[id]
	if v != nil && v.ds != nil {
		d, fp, gen = s.pinLocked(v)
		s.mu.Unlock()
		return d, fp, gen, s.releaseFunc(v), nil
	}
	s.mu.Unlock()
	if v == nil {
		return nil, 0, 0, nil, fmt.Errorf("server: %w: %q", ErrUnknownVehicle, id)
	}

	// Single-flight the fault on the vehicle's writer lock: the first
	// requester loads, the rest block here and find it resident.
	s.lockVehicle(id)
	defer s.unlockVehicle(id)
	d, fp, gen, err = s.faultLocked(ctx, v)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	return d, fp, gen, s.releaseFunc(v), nil
}

// pinLocked pins a resident vehicle, marks it most recently used and
// reads its dataset, fingerprint and generation. Caller holds s.mu.
func (s *Store) pinLocked(v *vehicle) (*etl.VehicleDataset, uint64, uint64) {
	v.pins++
	s.lru.moveToFront(v)
	return v.ds, v.fp, v.gen
}

// faultLocked makes v resident through the loader if it is not yet,
// and returns its state with one pin already held (so a racing
// eviction pass cannot drop it before the caller uses it). The caller
// must hold the vehicle's writer lock; that is what single-flights
// concurrent faults of the same vehicle.
func (s *Store) faultLocked(ctx context.Context, v *vehicle) (*etl.VehicleDataset, uint64, uint64, error) {
	// Re-check residency: a racing Acquire (or AppendContext) may have
	// faulted the vehicle in while this caller waited for the lock.
	s.mu.Lock()
	if v.ds != nil {
		d, fp, gen := s.pinLocked(v)
		s.mu.Unlock()
		return d, fp, gen, nil
	}
	s.mu.Unlock()

	_, sp := trace.Start(ctx, "store.load")
	sp.SetAttr("vehicle", v.id)
	d, err := s.loader(v.id)
	if err == nil {
		err = d.Validate()
	}
	if err == nil && d.VehicleID != v.id {
		err = fmt.Errorf("loader returned dataset %q", d.VehicleID)
	}
	sp.SetError(err)
	sp.End()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("server: load %q: %w", v.id, err)
	}
	fp, size := d.Fingerprint(), d.SizeBytes()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.insertLocked(v, d, fp, size)
	v.pins++
	s.evictLocked(ctx)
	return v.ds, v.fp, v.gen, nil
}

// releaseFunc builds the idempotent unpin closure Acquire hands out.
func (s *Store) releaseFunc(v *vehicle) func() {
	var once sync.Once
	return func() { once.Do(func() { s.unpin(v) }) }
}

// unpin drops one pin and runs an eviction pass: pinned entries are
// what keeps evictLocked from reclaiming, so the moment a pin drains
// is the moment reclaim can proceed — without this the store would
// stay over budget until the next fault.
func (s *Store) unpin(v *vehicle) {
	s.mu.Lock()
	if v.pins > 0 {
		v.pins--
	}
	s.evictLocked(context.Background())
	s.mu.Unlock()
}

// insertLocked makes d, with fingerprint fp and SizeBytes size, the
// resident dataset of v. Callers compute both before they take s.mu,
// so every critical section stays O(1) in the dataset's size. An
// in-place update keeps the entry's pins, which is how AppendContext
// and Put swap a new dataset in without invalidating the pins
// in-flight readers hold on the vehicle. Caller holds s.mu.
func (s *Store) insertLocked(v *vehicle, d *etl.VehicleDataset, fp uint64, size int64) {
	if v.ds == nil {
		s.resident++
		s.lru.pushFront(v)
	} else {
		s.residentBytes -= v.size
		s.lru.moveToFront(v)
	}
	v.ds, v.fp, v.size = d, fp, size
	s.residentBytes += v.size
	s.updateGaugesLocked()
}

// evictLocked drops cold residents from the LRU tail until the
// accountant is back under budget. Pinned vehicles are skipped — if
// everything left is pinned the store runs over budget until pins
// drain, which is the documented trade against yanking a dataset out
// from under an in-flight fit. No-op without a budget. Caller holds
// s.mu.
func (s *Store) evictLocked(ctx context.Context) {
	if s.budget <= 0 {
		return
	}
	for s.residentBytes > s.budget {
		v := s.lru.back
		for v != nil && v.pins > 0 {
			v = v.prev
		}
		if v == nil {
			return
		}
		_, sp := trace.Start(ctx, "store.evict")
		sp.SetAttr("vehicle", v.id)
		sp.SetAttrInt("bytes", int(v.size))
		sp.End()
		s.lru.remove(v)
		s.resident--
		s.residentBytes -= v.size
		// An evicted vehicle's appended days live durably in the
		// append log; dropping the dirty mark is safe (reload replays).
		// The generation stays with the entry.
		v.ds, v.fp, v.size, v.dirty = nil, 0, 0, false
		evictionsTotal.With().Inc()
		s.updateGaugesLocked()
	}
}

func (s *Store) updateGaugesLocked() {
	residentVehicles.With().Set(float64(s.resident))
	residentBytesGauge.With().Set(float64(s.residentBytes))
}

// ResidentStats reports the managed working set: resident vehicle
// count and their estimated bytes.
func (s *Store) ResidentStats() (vehicles int, bytes int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.resident, s.residentBytes
}

// DirtyResidents returns the resident datasets whose appended days
// have not yet been folded into their on-disk snapshot — the only
// vehicles a graceful shutdown needs to re-snapshot. Non-resident
// dirty state is already durable in the append log.
func (s *Store) DirtyResidents() []*etl.VehicleDataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*etl.VehicleDataset
	for v := s.lru.front; v != nil; v = v.next {
		if v.dirty {
			out = append(out, v.ds)
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

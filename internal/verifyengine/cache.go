package verifyengine

import (
	"container/list"
	"sync"

	"eol/internal/interp"
	"eol/internal/trace"
)

// DefaultCacheSize is the switched-run cache capacity when none is given.
// One entry holds a full traced re-execution, so the working set is the
// number of distinct predicate instances verified per localization — tens
// on the paper's benchmarks; 256 leaves room for shared caches serving
// several concurrent localizations.
const DefaultCacheSize = 256

// RunKey identifies one switched re-execution. Re-execution is a pure
// function of (program, input, switched predicate instance, step budget):
// the interpreter is deterministic, so two requests with equal keys
// produce identical runs and the first result can stand in for all later
// ones. Program and input enter as FNV-64a hashes so one cache can be
// shared across localizations of different programs.
//
// Checkpointed replay (docs/CHECKPOINT.md) deliberately does NOT enter
// the key: a run forked from a checkpoint is byte-identical to the full
// run it replaces, so the cached value is independent of whether — and
// from which checkpoint — it was produced. Adding a checkpoint component
// would only split identical entries and lower the hit rate.
type RunKey struct {
	Prog   uint64 // hash of the program source
	Input  uint64 // hash of the failing input vector
	Pred   trace.Instance
	Budget int
}

// CacheStats is a point-in-time snapshot of a RunCache's counters.
type CacheStats struct {
	Hits      int64 // lookups served from a stored or in-flight run
	Misses    int64 // lookups that had to execute
	Evictions int64 // entries dropped by the LRU policy
	Len       int   // entries currently stored
	Cap       int   // capacity
}

// RunCache is a bounded LRU cache of switched re-executions, safe for
// concurrent use. Lookups of a key whose run is currently being computed
// block until that run finishes instead of re-executing (single-flight),
// which is what lets parallel workers verifying different uses of the
// same predicate share one interpreter run.
//
// Stored results — including their traces — are shared across callers
// and must be treated as read-only; the engine pre-builds each trace's
// lazy ancestry index before publishing it.
type RunCache struct {
	mu       sync.Mutex
	cap      int
	ll       *list.List // front = most recently used
	items    map[RunKey]*list.Element
	inflight map[RunKey]*inflightRun

	// Speculative side table (docs/SPECULATION.md). Completed speculative
	// runs wait here — outside the LRU and outside the hit/miss/eviction
	// counters — until a demand lookup claims one, at which point it is
	// charged as a miss and inserted into the LRU exactly as the demand
	// run it replaced would have been. Unclaimed entries (mispredictions)
	// linger as warm results, bounded by cap, and are simply dropped with
	// the cache.
	spec         map[RunKey]*interp.Result
	specInflight map[RunKey]*inflightRun

	hits, misses, evictions int64
}

type cacheEntry struct {
	key RunKey
	res *interp.Result
}

type inflightRun struct {
	done chan struct{}
	res  *interp.Result
}

// NewRunCache returns a cache bounded to max entries (<= 0 means
// DefaultCacheSize).
func NewRunCache(max int) *RunCache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &RunCache{
		cap:          max,
		ll:           list.New(),
		items:        map[RunKey]*list.Element{},
		inflight:     map[RunKey]*inflightRun{},
		spec:         map[RunKey]*interp.Result{},
		specInflight: map[RunKey]*inflightRun{},
	}
}

// lookupOutcome classifies how a demand lookup was served, so the engine
// can charge its counters identically to a speculation-free run.
type lookupOutcome int

const (
	// lookupHit: served from a stored entry or an in-flight demand run —
	// a re-execution was avoided even without speculation.
	lookupHit lookupOutcome = iota
	// lookupRan: the lookup executed run() itself (counted as a miss).
	lookupRan
	// lookupClaimed: served by claiming a completed speculative run. The
	// cache charges the miss; the caller must charge whatever else the
	// demand run it replaced would have charged (charge-on-claim).
	lookupClaimed
)

// GetOrRun returns the cached run for key, or executes run exactly once
// per key (concurrent callers for the same key wait for the first) and
// stores the result. hit reports whether an execution was avoided.
func (c *RunCache) GetOrRun(key RunKey, run func() *interp.Result) (res *interp.Result, hit bool) {
	res, out := c.getOrRun(key, run)
	return res, out == lookupHit
}

// getOrRun is GetOrRun with the full outcome. A key whose speculative run
// is still executing is WAITED for, then claimed — never raced with a
// duplicate demand execution — so speculation can only change when a
// result becomes available, never which lookups count as hits or misses.
func (c *RunCache) getOrRun(key RunKey, run func() *interp.Result) (*interp.Result, lookupOutcome) {
	var fl *inflightRun
	for fl == nil {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			res := el.Value.(*cacheEntry).res
			c.mu.Unlock()
			return res, lookupHit
		}
		if dfl, ok := c.inflight[key]; ok {
			c.hits++
			c.mu.Unlock()
			<-dfl.done
			return dfl.res, lookupHit
		}
		if res, ok := c.spec[key]; ok {
			// Claim: the entry moves from the side table into the LRU
			// through the same insert path a demand run would have used,
			// and the lookup is charged as the miss it would have been.
			delete(c.spec, key)
			c.misses++
			c.insertLocked(key, res)
			c.mu.Unlock()
			return res, lookupClaimed
		}
		if sf, ok := c.specInflight[key]; ok {
			c.mu.Unlock()
			<-sf.done
			continue // re-enter: claim the stored result, or run if it was canceled
		}
		fl = &inflightRun{done: make(chan struct{})}
		c.inflight[key] = fl
		c.misses++
		c.mu.Unlock()
	}

	fl.res = run()

	c.mu.Lock()
	delete(c.inflight, key)
	// A run aborted by its caller's context is NOT a value of the pure
	// function the key names — it is an artifact of that caller's
	// deadline. Storing it would poison every later localization sharing
	// this cache with a wrong NOT_ID verdict. Deliver it to current
	// waiters only (they re-check their own contexts and retry) and leave
	// the key uncached so the next lookup re-executes.
	if fl.res == nil || !interp.IsCancellation(fl.res.Err) {
		c.insertLocked(key, fl.res)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.res, lookupRan
}

// insertLocked stores res under key in the LRU and applies the eviction
// policy. Caller holds c.mu.
func (c *RunCache) insertLocked(key RunKey, res *interp.Result) {
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// BeginSpeculative registers a speculative run for key. It returns
// ok == false — nothing to do — when the key is already stored, already
// being computed (demand or speculative), or the side table is full. On
// ok, the caller must execute the run WITHOUT charging any counters and
// then invoke commit exactly once with the result (nil or a canceled
// result records "no result": waiters re-enter the demand path, the same
// poisoning guard as GetOrRun). Demand lookups for the key wait for
// commit and then claim the stored result.
func (c *RunCache) BeginSpeculative(key RunKey) (commit func(*interp.Result), ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return nil, false
	}
	if _, ok := c.inflight[key]; ok {
		return nil, false
	}
	if _, ok := c.spec[key]; ok {
		return nil, false
	}
	if _, ok := c.specInflight[key]; ok {
		return nil, false
	}
	if len(c.spec)+len(c.specInflight) >= c.cap {
		return nil, false
	}
	sf := &inflightRun{done: make(chan struct{})}
	c.specInflight[key] = sf
	return func(res *interp.Result) {
		c.mu.Lock()
		delete(c.specInflight, key)
		if res != nil && !interp.IsCancellation(res.Err) {
			c.spec[key] = res
		}
		c.mu.Unlock()
		close(sf.done)
	}, true
}

// Stats snapshots the cache counters.
func (c *RunCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Len: c.ll.Len(), Cap: c.cap,
	}
}

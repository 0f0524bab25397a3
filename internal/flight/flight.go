// Package flight is the single-flight memory tier both serving caches are
// built from: the materialized-batch cache (encoded frames, internal/serve)
// and the split-point sample cache (post-prefix snapshots,
// internal/pipeline). A Cache maps keys to refcounted values under a byte
// budget with LRU eviction, computes each key once however many callers ask
// for it concurrently, and sits on an optional lower tier (the persistent
// store) that it consults on every claim and feeds on publish and eviction.
//
// Every key's slot is in one of three states: in flight (an owner is
// computing; waiters park on its done channel), ready (value published), or
// abandoned (the owner failed; waiters wake and retry, and one of them
// claims the key). State and value are written only under the lock and
// only before done is closed, so a waiter that observed the close reads
// both without it.
//
// Waiting is a mode. A blocking cache parks callers on in-flight entries;
// that is right whenever callers run on the wall clock. A non-blocking cache
// never parks: a caller that finds the key in flight computes the value
// privately (counted as bypassed), which is what procs of a simulated clock
// need, since they must never block on channels the clock cannot see. A
// blocking wait that outlives WaitTimeout also computes privately, so no
// caller's liveness depends on a stalled owner.
package flight

import (
	"container/list"
	"errors"
	"sync"
	"time"
)

// WaitTimeout bounds how long a caller blocks on another caller's in-flight
// computation before it computes the value itself.
const WaitTimeout = 30 * time.Second

// ErrCanceled reports that a caller's cancel channel fired while it waited
// on an in-flight entry.
var ErrCanceled = errors.New("flight: wait canceled")

// Value is what a Cache holds: an immutable payload of Size bytes with a
// reference count. Every value handed to a Cache (a compute result, a
// Fulfill argument, a lower-tier load) arrives with one reference owned by
// the hand-over's caller; every value a Cache returns carries one reference
// for its receiver, dropped with exactly one Release.
type Value interface {
	Size() int64
	Retain()
	Release()
}

// Lower is the tier below a Cache. Load is consulted on every claim; a hit
// is published as the key's entry and carries one reference for the caller.
// Store receives every published value that did not come from Load and every
// eviction victim. Both run outside the cache lock; Store must not keep v
// past the call without taking its own reference.
type Lower[K comparable, V Value] interface {
	Load(key K) (V, bool)
	Store(key K, v V)
}

type state uint8

const (
	inFlight state = iota
	ready
	abandoned
)

type entry[K comparable, V Value] struct {
	key     K
	state   state
	done    chan struct{}
	val     V
	size    int64
	waiters int // registered waiters, each pre-paid one reference on publish
	elem    *list.Element
}

// Cache is a keyed, refcounted, byte-budgeted LRU with single-flight
// computation. The budget is a soft bound at the granularity of one value:
// a value is published first and evicted by the overflow scan second, so a
// value larger than the whole budget still serves its waiters before it
// leaves. Eviction only drops the cache's own reference; holders keep their
// values alive.
type Cache[K comparable, V Value] struct {
	mu       sync.Mutex
	budget   int64
	used     int64
	blocking bool
	timeout  time.Duration
	entries  map[K]*entry[K, V]
	lru      list.List // of *entry; ready entries only, front = least recently used
	lower    Lower[K, V]
	n        Stats // counters; Entries and Bytes* are filled in by Stats
}

// Stats is the JSON form of a cache's counters for /metrics. Misses count
// claims (computations or lower-tier loads started); hits and singleflight
// waits are lookups served without one; bypassed counts private
// computations past an in-flight entry (non-blocking mode, timed-out waits).
type Stats struct {
	Hits             int64 `json:"hits"`
	Misses           int64 `json:"misses"`
	SingleflightWait int64 `json:"singleflight_waits"`
	Bypassed         int64 `json:"bypassed"`
	Evicted          int64 `json:"evicted"`
	Abandoned        int64 `json:"abandoned"`
	Entries          int   `json:"entries"`
	BytesUsed        int64 `json:"bytes_used"`
	BytesBudget      int64 `json:"bytes_budget"`
}

// New returns a cache bounded to budget bytes; blocking selects whether
// callers may park on another caller's in-flight computation.
func New[K comparable, V Value](budget int64, blocking bool) *Cache[K, V] {
	return &Cache[K, V]{
		budget:   budget,
		blocking: blocking,
		timeout:  WaitTimeout,
		entries:  make(map[K]*entry[K, V]),
	}
}

// SetLower attaches the tier below. Call before the cache is shared across
// goroutines; the field is read without synchronization afterwards.
func (c *Cache[K, V]) SetLower(l Lower[K, V]) { c.lower = l }

// SetBudget retargets the byte budget at runtime (the controller's cache
// knob). Shrinking evicts LRU-first down to the new bound immediately, and
// the victims go to the lower tier like any other eviction, so a budget cut
// demotes values instead of destroying them.
func (c *Cache[K, V]) SetBudget(budget int64) {
	if budget <= 0 {
		return
	}
	c.mu.Lock()
	c.budget = budget
	victims := c.evictLocked()
	c.mu.Unlock()
	c.drop(victims)
}

// Claim makes the caller the owner of key if and only if no entry exists,
// without blocking. The lower tier is consulted first: a hit there is
// published at once (waking any waiters) and Claim reports false, as it
// does for a key that is already in flight or ready. A true return obliges
// the caller to Fulfill or Abandon the key.
func (c *Cache[K, V]) Claim(key K) bool {
	c.mu.Lock()
	if _, ok := c.entries[key]; ok {
		c.mu.Unlock()
		return false
	}
	c.claimLocked(key)
	c.mu.Unlock()
	if v, ok := c.load(key); ok {
		v.Release()
		return false
	}
	return true
}

// TryGet is a non-blocking probe: a ready entry returns its value with a
// reference for the caller (counted as a hit and freshened in the LRU); an
// absent or in-flight key returns false and registers the caller as nothing.
func (c *Cache[K, V]) TryGet(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.state == ready {
		return c.hitLocked(e), true
	}
	var zero V
	return zero, false
}

// Acquire returns key's value whatever it takes: a hit; a claim, then the
// lower tier, then compute and publish; a wait on another caller's
// in-flight computation; or, after that owner abandons, another round. A
// non-blocking cache, or a wait that outlives WaitTimeout, computes the
// value privately without touching the in-flight claim. A compute error or
// panic abandons the claim (the panic is re-raised). The returned value
// carries a reference for the caller.
func (c *Cache[K, V]) Acquire(key K, cancel <-chan struct{}, compute func() (V, error)) (V, error) {
	var zero V
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		switch {
		case !ok:
			c.claimLocked(key)
			c.mu.Unlock()
			if v, ok := c.load(key); ok {
				return v, nil
			}
			return c.computeClaimed(key, compute)
		case e.state == ready:
			v := c.hitLocked(e)
			c.mu.Unlock()
			return v, nil
		case !c.blocking:
			c.n.Bypassed++
			c.mu.Unlock()
			return compute()
		}
		c.n.SingleflightWait++
		e.waiters++
		c.mu.Unlock()

		timer := time.NewTimer(c.timeout)
		select {
		case <-e.done:
		case <-cancel:
			if c.withdraw(e, false) {
				timer.Stop()
				return zero, ErrCanceled
			}
		case <-timer.C:
			if c.withdraw(e, true) {
				return compute()
			}
		}
		timer.Stop()
		// Resolved: a ready entry pre-paid this waiter's reference; an
		// abandoned one sends it round again to race for the claim.
		if e.state == ready {
			return e.val, nil
		}
	}
}

// Fulfill publishes v for a key the caller claimed. The cache takes its own
// reference and pre-pays one per registered waiter; the caller keeps the
// reference it arrived with.
func (c *Cache[K, V]) Fulfill(key K, v V) { c.publish(key, v, true) }

// Abandon resolves a claimed key without a value: the entry leaves the cache
// and every waiter wakes to retry. Abandoning a key that is not in flight is
// a no-op, so cleanup paths may call it unconditionally.
func (c *Cache[K, V]) Abandon(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.state != inFlight {
		return
	}
	e.state = abandoned
	delete(c.entries, key)
	c.n.Abandoned++
	close(e.done)
}

// Stats returns a consistent copy of the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.n
	st.Entries, st.BytesUsed, st.BytesBudget = len(c.entries), c.used, c.budget
	return st
}

func (c *Cache[K, V]) claimLocked(key K) {
	c.n.Misses++
	c.entries[key] = &entry[K, V]{key: key, done: make(chan struct{})}
}

func (c *Cache[K, V]) hitLocked(e *entry[K, V]) V {
	c.n.Hits++
	c.lru.MoveToBack(e.elem)
	e.val.Retain()
	return e.val
}

// load consults the lower tier for a key the caller has just claimed and
// publishes a hit; the returned value keeps the load's reference.
func (c *Cache[K, V]) load(key K) (V, bool) {
	if c.lower == nil {
		var zero V
		return zero, false
	}
	v, ok := c.lower.Load(key)
	if ok {
		c.publish(key, v, false)
	}
	return v, ok
}

// computeClaimed runs compute for a key the caller claimed and publishes
// the result; on an error or a panic the claim is abandoned first.
func (c *Cache[K, V]) computeClaimed(key K, compute func() (V, error)) (V, error) {
	published := false
	defer func() {
		if !published {
			c.Abandon(key)
		}
	}()
	v, err := compute()
	if err != nil {
		var zero V
		return zero, err
	}
	c.publish(key, v, true)
	published = true
	return v, nil
}

// withdraw unregisters a waiter that gives up. It reports false when the
// entry resolved first, in which case the waiter takes the outcome (and,
// if ready, the reference pre-paid for it).
func (c *Cache[K, V]) withdraw(e *entry[K, V], timedOut bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-e.done:
		return false
	default:
	}
	e.waiters--
	if timedOut {
		c.n.Bypassed++
	}
	return true
}

// publish makes v the ready value of a key the caller owns, evicts past the
// budget, and hands v (unless it came from the lower tier) and the victims
// to the lower tier outside the lock.
func (c *Cache[K, V]) publish(key K, v V, store bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok || e.state != inFlight {
		c.mu.Unlock()
		panic("flight: publish on a key the caller does not own")
	}
	for i := 0; i <= e.waiters; i++ { // the waiters' references + the cache's own
		v.Retain()
	}
	e.val, e.size, e.state = v, v.Size(), ready
	e.elem = c.lru.PushBack(e)
	c.used += e.size
	victims := c.evictLocked()
	close(e.done)
	c.mu.Unlock()
	if store && c.lower != nil {
		c.lower.Store(key, v)
	}
	c.drop(victims)
}

// evictLocked pops least recently used entries until used fits the budget.
func (c *Cache[K, V]) evictLocked() []*entry[K, V] {
	var victims []*entry[K, V]
	for c.used > c.budget && c.lru.Len() > 0 {
		e := c.lru.Remove(c.lru.Front()).(*entry[K, V])
		delete(c.entries, e.key)
		c.used -= e.size
		c.n.Evicted++
		victims = append(victims, e)
	}
	return victims
}

// drop offers eviction victims to the lower tier and releases the cache's
// references, outside the lock.
func (c *Cache[K, V]) drop(victims []*entry[K, V]) {
	for _, e := range victims {
		if c.lower != nil {
			c.lower.Store(e.key, e.val)
		}
		e.val.Release()
	}
}

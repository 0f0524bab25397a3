package flight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testVal is a refcounted fake value. frees counts final releases, so a
// test can assert that a value was released exactly once after every holder
// let go.
type testVal struct {
	key   int
	id    int
	size  int64
	refs  atomic.Int32
	frees atomic.Int32
}

var valSeq atomic.Int64

func newVal(key int, size int64) *testVal {
	v := &testVal{key: key, id: int(valSeq.Add(1)), size: size}
	v.refs.Store(1)
	return v
}

func (v *testVal) Size() int64 { return v.size }

func (v *testVal) Retain() {
	if v.refs.Add(1) <= 1 {
		panic("testVal: Retain on a released value")
	}
}

func (v *testVal) Release() {
	switch n := v.refs.Add(-1); {
	case n == 0:
		v.frees.Add(1)
	case n < 0:
		panic("testVal: over-released")
	}
}

// memLower is a lower tier that keeps which keys it was handed. Loads make
// values of size bytes, or with mk when it is set.
type memLower struct {
	mu     sync.Mutex
	has    map[int]bool
	stores int
	loads  int
	size   int64
	mk     func(key int) *testVal
}

func (l *memLower) Load(key int) (*testVal, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.has[key] {
		return nil, false
	}
	l.loads++
	if l.mk != nil {
		return l.mk(key), true
	}
	return newVal(key, l.size), true
}

func (l *memLower) Store(key int, v *testVal) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if v.refs.Load() < 1 {
		panic("memLower: Store of a released value")
	}
	l.has[key] = true
	l.stores++
}

var modes = []struct {
	name     string
	blocking bool
}{{"blocking", true}, {"nonblocking", false}}

var errCompute = errors.New("injected compute failure")

// waitParked spins until key's in-flight entry has n registered waiters.
func waitParked(t *testing.T, c *Cache[int, *testVal], key, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		e := c.entries[key]
		got := -1
		if e != nil && e.state == inFlight {
			got = e.waiters
		}
		c.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %d: %d waiters parked, want %d", key, got, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestSingleFlight: one claimer, K concurrent lookups of the same key.
// Blocking: every lookup parks until Fulfill and observes the published
// value; the counters show one miss and K waits. Non-blocking: every lookup
// computes privately and is counted as bypassed. Either way a late lookup
// hits.
func TestSingleFlight(t *testing.T) {
	const K = 8
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			c := New[int, *testVal](1<<20, m.blocking)
			if !c.Claim(0) {
				t.Fatal("first Claim did not claim")
			}
			got := make([]*testVal, K)
			var wg sync.WaitGroup
			for i := 0; i < K; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					v, err := c.Acquire(0, nil, func() (*testVal, error) { return newVal(0, 64), nil })
					if err != nil {
						t.Errorf("lookup %d: %v", i, err)
					}
					got[i] = v
				}(i)
			}
			if m.blocking {
				waitParked(t, c, 0, K)
			} else {
				wg.Wait() // bypassers finish before the owner publishes
			}
			if _, ok := c.TryGet(0); ok {
				t.Fatal("TryGet returned an in-flight entry")
			}
			owner := newVal(0, 64)
			c.Fulfill(0, owner)
			owner.Release()
			wg.Wait()
			for i, v := range got {
				if v == nil {
					continue
				}
				if m.blocking != (v == owner) {
					t.Fatalf("lookup %d: got value %d, owner published %d", i, v.id, owner.id)
				}
				v.Release()
			}
			st := c.Stats()
			want := Stats{Misses: 1, Entries: 1, BytesUsed: 64, BytesBudget: 1 << 20}
			if m.blocking {
				want.SingleflightWait = K
			} else {
				want.Bypassed = K
			}
			if st != want {
				t.Fatalf("stats %+v, want %+v", st, want)
			}
			if n := owner.refs.Load(); n != 1 {
				t.Fatalf("published value holds %d references at rest, want the cache's 1", n)
			}
			v, ok := c.TryGet(0)
			if !ok || v != owner {
				t.Fatal("ready entry did not hit")
			}
			v.Release()
			if st := c.Stats(); st.Hits != 1 {
				t.Fatalf("hits %d after ready lookup, want 1", st.Hits)
			}
		})
	}
}

// TestAbandonWakesWaiters: an owner that fails must not strand its waiters;
// they wake, retry, and one of them claims and computes. In non-blocking
// mode nobody waits: the lookup computes privately at once, and the key is
// claimable after the abandon.
func TestAbandonWakesWaiters(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			c := New[int, *testVal](1<<20, m.blocking)
			if !c.Claim(1) {
				t.Fatal("setup claim failed")
			}
			var computes atomic.Int32
			compute := func() (*testVal, error) {
				computes.Add(1)
				return newVal(1, 16), nil
			}
			done := make(chan *testVal, 1)
			go func() {
				v, err := c.Acquire(1, nil, compute)
				if err != nil {
					t.Errorf("Acquire after abandon: %v", err)
				}
				done <- v
			}()
			if m.blocking {
				waitParked(t, c, 1, 1)
			} else {
				(<-done).Release()
			}
			c.Abandon(1)
			c.Abandon(1) // no longer in flight: a no-op
			if m.blocking {
				select {
				case v := <-done:
					if v == nil || v.key != 1 {
						t.Fatal("retry produced the wrong value")
					}
					v.Release()
				case <-time.After(10 * time.Second):
					t.Fatal("waiter stranded after Abandon")
				}
			}
			if n := computes.Load(); n != 1 {
				t.Fatalf("computes %d, want 1", n)
			}
			st := c.Stats()
			if st.Abandoned != 1 {
				t.Fatalf("abandoned %d, want 1", st.Abandoned)
			}
			if m.blocking && (st.Misses != 2 || st.Entries != 1) {
				t.Fatalf("stats %+v, want the waiter's re-claim published", st)
			}
			if !m.blocking && (st.Misses != 1 || st.Bypassed != 1 || st.Entries != 0) {
				t.Fatalf("stats %+v, want one claim, one bypass, nothing resident", st)
			}
			if !m.blocking && !c.Claim(1) {
				t.Fatal("abandoned key not claimable")
			}
		})
	}
}

// TestWaitTimeout: a stuck owner must not wedge a lookup. Blocking: the wait
// times out and the value is computed privately, counted as bypassed;
// non-blocking: the lookup bypasses at once. The stuck claim is untouched:
// fulfilling it later still serves later lookups.
func TestWaitTimeout(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			c := New[int, *testVal](1<<20, m.blocking)
			c.timeout = 20 * time.Millisecond
			if !c.Claim(2) {
				t.Fatal("setup claim failed")
			}
			v, err := c.Acquire(2, nil, func() (*testVal, error) { return newVal(2, 8), nil })
			if err != nil || v.key != 2 {
				t.Fatalf("Acquire: %v", err)
			}
			v.Release()
			if v.frees.Load() != 1 {
				t.Fatal("private value was kept by the cache")
			}
			st := c.Stats()
			if st.Bypassed != 1 || st.Misses != 1 {
				t.Fatalf("stats %+v, want 1 bypass past the stuck claim", st)
			}
			if m.blocking && st.SingleflightWait != 1 {
				t.Fatalf("stats %+v, want the timed-out wait counted", st)
			}
			owner := newVal(2, 8)
			c.Fulfill(2, owner)
			owner.Release()
			h, ok := c.TryGet(2)
			if !ok || h != owner {
				t.Fatal("original claim unusable after a lookup bypassed it")
			}
			h.Release()
		})
	}
}

// TestCancelWait: a canceled wait returns ErrCanceled and withdraws its
// registration, so the publish pre-pays no reference for it.
func TestCancelWait(t *testing.T) {
	c := New[int, *testVal](1<<20, true)
	c.Claim(3)
	cancel := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := c.Acquire(3, cancel, func() (*testVal, error) { return newVal(3, 4), nil })
		errc <- err
	}()
	waitParked(t, c, 3, 1)
	close(cancel)
	if err := <-errc; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled wait returned %v", err)
	}
	v := newVal(3, 4)
	c.Fulfill(3, v)
	v.Release()
	if n := v.refs.Load(); n != 1 {
		t.Fatalf("value holds %d references after publish, want the cache's 1", n)
	}
}

// TestEvictionOrder pins the LRU discipline: the least recently used ready
// entry leaves first, and a hit protects an entry by moving it to the most
// recently used end.
func TestEvictionOrder(t *testing.T) {
	const size = 100
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			c := New[int, *testVal](3*size, m.blocking)
			put := func(k int) {
				if !c.Claim(k) {
					t.Fatalf("claim %d failed", k)
				}
				v := newVal(k, size)
				c.Fulfill(k, v)
				v.Release()
			}
			lookup := func(k int) bool {
				v, ok := c.TryGet(k)
				if ok {
					v.Release()
				}
				return ok
			}
			put(0)
			put(1)
			put(2)
			put(3) // budget 3: evicts 0, the LRU
			if lookup(0) {
				t.Fatal("entry 0 survived an over-budget insert")
			}
			if !lookup(1) || !lookup(2) || !lookup(3) {
				t.Fatal("younger entries evicted out of order")
			}
			if !lookup(1) { // order now 2,3,1
				t.Fatal("entry 1 missing before the protection check")
			}
			put(4) // evicts 2: the oldest untouched entry
			if lookup(2) {
				t.Fatal("LRU order violated: 2 should have been evicted")
			}
			if !lookup(1) || !lookup(3) || !lookup(4) {
				t.Fatal("protected or fresh entries evicted")
			}
			st := c.Stats()
			if st.Evicted != 2 || st.BytesUsed != 3*size || st.Entries != 3 {
				t.Fatalf("stats %+v, want 2 evicted and 3 resident", st)
			}
		})
	}
}

// TestByteBudget: the budget bounds resident bytes, eviction hands victims
// to the lower tier, and a value larger than the whole budget still reaches
// its caller (publish first, evict second) without staying resident. Every
// evicted value is released exactly once, after its last holder.
func TestByteBudget(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			c := New[int, *testVal](250, m.blocking)
			low := &memLower{has: map[int]bool{}}
			c.SetLower(low)
			var vals []*testVal
			for k := 0; k < 10; k++ {
				v, err := c.Acquire(k, nil, func() (*testVal, error) { return newVal(k, 100), nil })
				if err != nil {
					t.Fatal(err)
				}
				vals = append(vals, v)
				if st := c.Stats(); st.BytesUsed > 250 {
					t.Fatalf("after insert %d: %d bytes resident, budget 250", k, st.BytesUsed)
				}
			}
			for k, v := range vals {
				if v.frees.Load() != 0 {
					t.Fatalf("value %d released under a live holder", k)
				}
				v.Release()
			}
			if low.stores != 10+8 { // every publish plus every victim
				t.Fatalf("lower tier got %d stores, want 18", low.stores)
			}
			c.SetBudget(100) // shrink: evicts value 8 down to the new bound
			if st := c.Stats(); st.BytesUsed != 100 || st.BytesBudget != 100 || st.Entries != 1 {
				t.Fatalf("SetBudget did not evict to the new bound: %+v", st)
			}
			big, err := c.Acquire(99, nil, func() (*testVal, error) { return newVal(99, 1000), nil })
			if err != nil || big.Size() != 1000 {
				t.Fatal("oversize value not served")
			}
			if st := c.Stats(); st.BytesUsed != 0 || st.Entries != 0 {
				t.Fatalf("oversize value stayed resident: %+v", st)
			}
			big.Release()
			for _, v := range append(vals, big) {
				if n := v.frees.Load(); n != 1 {
					t.Fatalf("evicted value %d released %d times, want once after its last holder", v.key, n)
				}
			}
		})
	}
}

// TestLowerTier: every claim consults the lower tier. A hit publishes the
// loaded value inside Claim (which reports false) and is not stored back;
// Acquire's claim loads the same way.
func TestLowerTier(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			c := New[int, *testVal](1<<20, m.blocking)
			low := &memLower{has: map[int]bool{5: true, 6: true}, size: 10}
			c.SetLower(low)
			if c.Claim(5) {
				t.Fatal("Claim of a key held below did not publish it")
			}
			v, ok := c.TryGet(5)
			if !ok || v.key != 5 {
				t.Fatal("loaded value not published")
			}
			v.Release()
			v, err := c.Acquire(6, nil, func() (*testVal, error) {
				t.Error("computed a key held below")
				return newVal(6, 10), nil
			})
			if err != nil || v.key != 6 {
				t.Fatal("Acquire did not load from the lower tier")
			}
			v.Release()
			if !c.Claim(7) {
				t.Fatal("Claim of an unknown key failed")
			}
			c.Abandon(7)
			st := c.Stats()
			if low.loads != 2 || low.stores != 0 || st.Misses != 3 || st.Hits != 1 {
				t.Fatalf("loads %d stores %d stats %+v, want 2 loads, no store-back", low.loads, low.stores, st)
			}
		})
	}
}

// TestAbandonOnPanic: a compute error or panic abandons the claim (the panic
// is re-raised), so waiters retry instead of parking forever, and the key
// serves once the fault clears.
func TestAbandonOnPanic(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			c := New[int, *testVal](1<<20, m.blocking)
			if _, err := c.Acquire(4, nil, func() (*testVal, error) { return nil, errCompute }); err != errCompute {
				t.Fatalf("compute error not returned: %v", err)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("compute panic was not re-raised")
					}
				}()
				c.Acquire(4, nil, func() (*testVal, error) { panic(errCompute) })
			}()
			if st := c.Stats(); st.Abandoned != 2 || st.Entries != 0 {
				t.Fatalf("stats %+v after error and panic, want 2 abandoned claims", st)
			}
			for i := 0; i < 2; i++ { // re-claim and publish, then a hit
				v, err := c.Acquire(4, nil, func() (*testVal, error) { return newVal(4, 4), nil })
				if err != nil {
					t.Fatal(err)
				}
				v.Release()
			}
			if st := c.Stats(); st.Misses != 3 || st.Hits != 1 {
				t.Fatalf("stats %+v, want 3 claims and 1 hit", st)
			}
		})
	}
}

// TestConcurrentChurn hammers one small cache from many goroutines mixing
// claims, publishes, hits, waits or bypasses, and evictions: the -race
// workout for the state machine. Every lookup is counted exactly once, and
// at rest only resident values hold a reference.
func TestConcurrentChurn(t *testing.T) {
	const (
		workers = 8
		keys    = 16
		rounds  = 200
	)
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			c := New[int, *testVal](400, m.blocking) // 4 values of 100
			var mu sync.Mutex
			var all []*testVal
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						k := (w + r) % keys
						v, err := c.Acquire(k, nil, func() (*testVal, error) {
							v := newVal(k, 100)
							mu.Lock()
							all = append(all, v)
							mu.Unlock()
							return v, nil
						})
						if err != nil || v.key != k {
							t.Errorf("worker %d round %d: wrong value for key %d (%v)", w, r, k, err)
							return
						}
						v.Release()
					}
				}(w)
			}
			wg.Wait()
			st := c.Stats()
			if st.BytesUsed > 400 {
				t.Fatalf("budget exceeded at rest: %d", st.BytesUsed)
			}
			if n := st.Hits + st.Misses + st.SingleflightWait + st.Bypassed; n != workers*rounds {
				t.Fatalf("counters %+v count %d lookups, want %d", st, n, workers*rounds)
			}
			resident := 0
			for _, v := range all {
				switch refs, frees := v.refs.Load(), v.frees.Load(); {
				case refs == 1 && frees == 0:
					resident++
				case refs != 0 || frees != 1:
					t.Fatalf("value %d at rest: %d refs, %d frees", v.id, refs, frees)
				}
			}
			if resident != st.Entries {
				t.Fatalf("%d values hold the cache's reference, %d entries resident", resident, st.Entries)
			}
		})
	}
}

package flight

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// FuzzCacheModel drives a Cache with a random program of operations and
// checks it against a shadow model after every step. One driver goroutine
// issues the operations; lookups that must park (blocking mode, key in
// flight) run on their own goroutines, and owners started by Acquire keep
// their claim open on a goroutine whose compute waits for a verdict. The
// driver waits for each parked goroutine to register before it moves on,
// so every interleaving of claim, wait, publish, abandon, cancel, eviction
// and budget change is reached deterministically.
//
// Input: byte 0 picks the mode (bit 0 blocking, bit 1 lower tier present)
// and the budget; each following pair of bytes is (operation, argument).
//
// After every step: ready values equal the ones the model published and
// the LRU order matches; used <= budget; hits + misses + waits + bypassed
// equal the lookups made (with each exactly known except the split of
// hits and waits among waiters racing after an abandon); the lower tier
// holds what was stored; and every value holds exactly the references of
// its holders, a value nobody holds having been released exactly once.
func FuzzCacheModel(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog := make([]byte, 1+2*(20+r.Intn(180)))
		r.Read(prog)
		prog[0] = byte(seed) // cover all four modes
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		m := newModel(t, prog[0])
		for i := 1; i+1 < len(prog); i += 2 {
			m.step(prog[i], prog[i+1])
			m.check()
		}
		m.drain()
		m.check()
	})
}

const modelKeys = 6

var modelSizes = [modelKeys]int64{3, 5, 8, 2, 13, 7}

// Budgets never fall below the largest value, so a value that was just
// published stays resident until the driver's next step; oversize values
// are TestByteBudget's business.
const minModelBudget = 13

type result struct {
	v        *testVal
	err      error
	panicked bool
}

type waiter struct {
	cancel chan struct{}
	res    chan result
}

type owner struct {
	verdict chan byte // 0 publish, 1 error, 2 panic
	res     chan result
}

type model struct {
	t     *testing.T
	c     *Cache[int, *testVal]
	lower *memLower // nil when the cache has no lower tier

	mu   sync.Mutex // guards vals: computes run on goroutines
	vals []*testVal

	budget   int64
	ready    map[int]*testVal
	order    []int // LRU order of ready keys, front = least recently used
	used     int64
	lowerHas map[int]bool
	claims   map[int]bool      // keys the driver claimed with Claim
	owners   map[int]*owner    // keys claimed by a parked Acquire
	parked   map[int][]*waiter // blocking waiters per in-flight key
	held     []*testVal        // references the driver holds
	want     Stats             // Hits and SingleflightWait: known lower bounds
	racing   int64             // hits+waits of waiters racing after an abandon
	lookups  int64
}

func newModel(t *testing.T, mode byte) *model {
	m := &model{
		t:        t,
		budget:   minModelBudget + int64(mode>>2)%40,
		ready:    map[int]*testVal{},
		lowerHas: map[int]bool{},
		claims:   map[int]bool{},
		owners:   map[int]*owner{},
		parked:   map[int][]*waiter{},
	}
	m.c = New[int, *testVal](m.budget, mode&1 != 0)
	if mode&2 != 0 {
		m.lower = &memLower{has: map[int]bool{}, mk: m.newVal}
		m.c.SetLower(m.lower)
	}
	return m
}

func (m *model) newVal(k int) *testVal {
	v := newVal(k, modelSizes[k])
	m.mu.Lock()
	m.vals = append(m.vals, v)
	m.mu.Unlock()
	return v
}

func (m *model) compute(k int, verdict byte) func() (*testVal, error) {
	return func() (*testVal, error) {
		switch verdict {
		case 1:
			return nil, errCompute
		case 2:
			panic(errCompute)
		}
		return m.newVal(k), nil
	}
}

func (m *model) acquire(k int, cancel chan struct{}, compute func() (*testVal, error)) chan result {
	ch := make(chan result, 1)
	go func() {
		var r result
		defer func() {
			if p := recover(); p != nil {
				r.panicked = true
			}
			ch <- r
		}()
		r.v, r.err = m.c.Acquire(k, cancel, compute)
	}()
	return ch
}

func (m *model) await(ch chan result) result {
	m.t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		m.t.Fatal("lookup did not return")
		return result{}
	}
}

func (m *model) inFlight(k int) bool { return m.claims[k] || m.owners[k] != nil }

// loadable reports whether a claim of k finds it in the lower tier; the
// loaded value (the latest one made) is then published without a
// store-back.
func (m *model) loadable(k int) bool { return m.lower != nil && m.lowerHas[k] }

func (m *model) publish(k int, v *testVal, store bool) {
	m.ready[k] = v
	m.order = append(m.order, k)
	m.used += v.size
	if store && m.lower != nil {
		m.lowerHas[k] = true
	}
	m.evict()
}

func (m *model) evict() {
	for m.used > m.budget && len(m.order) > 0 {
		k := m.order[0]
		m.order = m.order[1:]
		m.used -= m.ready[k].size
		delete(m.ready, k)
		m.want.Evicted++
		if m.lower != nil {
			m.lowerHas[k] = true
		}
	}
}

func (m *model) touch(k int) {
	i := slices.Index(m.order, k)
	m.order = append(slices.Delete(m.order, i, i+1), k)
}

func (m *model) lastVal() *testVal {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.vals[len(m.vals)-1]
}

func (m *model) step(op, arg byte) {
	t := m.t
	k := int(arg) % modelKeys
	verdict := arg / modelKeys % 3
	switch op % 12 {
	case 0: // Claim
		got := m.c.Claim(k)
		switch {
		case m.ready[k] != nil || m.inFlight(k):
			if got {
				t.Fatalf("Claim(%d) won a key that is ready or in flight", k)
			}
			return
		case m.loadable(k):
			m.want.Misses++
			m.lookups++
			m.publish(k, m.lastVal(), false)
			if got {
				t.Fatalf("Claim(%d) ignored the lower tier", k)
			}
		default:
			m.want.Misses++
			m.lookups++
			m.claims[k] = true
			if !got {
				t.Fatalf("Claim(%d) of an absent key failed", k)
			}
		}
	case 1: // TryGet
		v, ok := m.c.TryGet(k)
		if ok != (m.ready[k] != nil) || (ok && v != m.ready[k]) {
			t.Fatalf("TryGet(%d) = %v, %v; model holds %v", k, v, ok, m.ready[k])
		}
		if ok {
			m.want.Hits++
			m.lookups++
			m.touch(k)
			m.held = append(m.held, v)
		}
	case 2, 3, 4: // Acquire with a compute that succeeds, fails or panics
		m.acquireStep(k, verdict)
	case 5: // Acquire whose compute waits for a verdict: an open owner
		if m.ready[k] != nil || m.inFlight(k) || m.loadable(k) {
			m.acquireStep(k, 0)
			return
		}
		o := &owner{verdict: make(chan byte, 1)}
		o.res = m.acquire(k, nil, func() (*testVal, error) {
			return m.compute(k, <-o.verdict)()
		})
		m.want.Misses++
		m.lookups++
		m.owners[k] = o
		waitParked(t, m.c, k, 0)
	case 6: // resolve an open claim or owner
		m.resolve(k, verdict)
	case 7: // cancel a parked waiter
		ws := m.parked[k]
		if len(ws) == 0 {
			return
		}
		m.parked[k] = ws[1:]
		close(ws[0].cancel)
		if r := m.await(ws[0].res); !errors.Is(r.err, ErrCanceled) || r.v != nil {
			t.Fatalf("canceled wait on %d returned %+v", k, r)
		}
		waitParked(t, m.c, k, len(m.parked[k]))
	case 8: // SetBudget
		m.budget = minModelBudget + int64(arg)%40
		m.c.SetBudget(m.budget)
		m.evict()
	case 9: // release a held reference
		if len(m.held) > 0 {
			i := int(arg) % len(m.held)
			m.held[i].Release()
			m.held = slices.Delete(m.held, i, i+1)
		}
	case 10: // the lower tier loses a key
		if m.lower != nil {
			m.lower.mu.Lock()
			delete(m.lower.has, k)
			m.lower.mu.Unlock()
			delete(m.lowerHas, k)
		}
	case 11: // Abandon of a key nobody claimed is a no-op
		if !m.inFlight(k) {
			m.c.Abandon(k)
		}
	}
}

func (m *model) acquireStep(k int, verdict byte) {
	t := m.t
	switch {
	case m.ready[k] != nil:
		r := m.await(m.acquire(k, nil, m.compute(k, verdict)))
		if r.v != m.ready[k] {
			t.Fatalf("Acquire(%d) hit returned %v, model holds %v", k, r.v, m.ready[k])
		}
		m.want.Hits++
		m.lookups++
		m.touch(k)
		m.held = append(m.held, r.v)
	case m.inFlight(k) && m.c.blocking:
		w := &waiter{cancel: make(chan struct{})}
		w.res = m.acquire(k, w.cancel, m.compute(k, 0))
		m.parked[k] = append(m.parked[k], w)
		m.want.SingleflightWait++
		m.lookups++
		waitParked(t, m.c, k, len(m.parked[k]))
	case m.inFlight(k):
		r := m.await(m.acquire(k, nil, m.compute(k, verdict)))
		m.want.Bypassed++
		m.lookups++
		m.expectComputed(k, verdict, r)
	case m.loadable(k):
		r := m.await(m.acquire(k, nil, m.compute(k, verdict)))
		m.want.Misses++
		m.lookups++
		m.publish(k, m.lastVal(), false)
		if r.v != m.ready[k] {
			t.Fatalf("Acquire(%d) did not return the loaded value", k)
		}
		m.held = append(m.held, r.v)
	default:
		r := m.await(m.acquire(k, nil, m.compute(k, verdict)))
		m.want.Misses++
		m.lookups++
		if m.expectComputed(k, verdict, r) {
			m.publish(k, r.v, true)
		} else {
			m.want.Abandoned++
		}
	}
}

// expectComputed checks the outcome of a compute the caller ran itself and
// reports whether it produced a value (which the driver now holds).
func (m *model) expectComputed(k int, verdict byte, r result) bool {
	switch verdict {
	case 1:
		if r.err != errCompute || r.v != nil {
			m.t.Fatalf("Acquire(%d) with a failing compute returned %+v", k, r)
		}
		return false
	case 2:
		if !r.panicked {
			m.t.Fatalf("Acquire(%d) swallowed a compute panic", k)
		}
		return false
	}
	if r.err != nil || r.v == nil || r.v.key != k {
		m.t.Fatalf("Acquire(%d) returned %+v", k, r)
	}
	m.held = append(m.held, r.v)
	return true
}

// resolve ends key k's open claim (driver Fulfill or Abandon) or open owner
// (compute verdict), then collects its parked waiters.
func (m *model) resolve(k int, verdict byte) {
	var v *testVal
	switch {
	case m.claims[k]:
		delete(m.claims, k)
		if verdict == 0 {
			v = m.newVal(k)
			m.c.Fulfill(k, v)
			m.held = append(m.held, v)
		} else {
			m.c.Abandon(k)
		}
	case m.owners[k] != nil:
		o := m.owners[k]
		delete(m.owners, k)
		o.verdict <- verdict
		if r := m.await(o.res); m.expectComputed(k, verdict, r) {
			v = r.v
		}
	default:
		return
	}
	ws := m.parked[k]
	delete(m.parked, k)
	if v != nil {
		m.publish(k, v, true)
	} else {
		m.want.Abandoned++
		if len(ws) > 0 {
			// Every waiter goes round again: one claims and computes, the
			// rest wait on it or hit its value.
			m.want.Misses++
			m.lookups += int64(len(ws))
			m.racing += int64(len(ws) - 1)
		}
	}
	for i, w := range ws {
		r := m.await(w.res)
		if r.err != nil || r.v == nil || r.v.key != k {
			m.t.Fatalf("waiter on %d returned %+v", k, r)
		}
		if v == nil && i == 0 {
			v = r.v
			m.publish(k, v, true)
		}
		if r.v != v {
			m.t.Fatalf("waiters on %d saw different values", k)
		}
		m.held = append(m.held, r.v)
	}
}

// drain resolves every open claim and owner and drops every held reference.
func (m *model) drain() {
	for k := 0; k < modelKeys; k++ {
		m.resolve(k, 1)
	}
	for _, v := range m.held {
		v.Release()
	}
	m.held = nil
}

func (m *model) check() {
	t := m.t
	c := m.c
	c.mu.Lock()
	var order []int
	for e := c.lru.Front(); e != nil; e = e.Next() {
		order = append(order, e.Value.(*entry[int, *testVal]).key)
	}
	for k, e := range c.entries {
		switch {
		case e.state == ready && e.val != m.ready[k]:
			t.Fatalf("key %d: cache holds %v, model published %v", k, e.val, m.ready[k])
		case e.state == inFlight && !m.inFlight(k):
			t.Fatalf("key %d in flight in the cache only", k)
		}
	}
	used, budget, entries := c.used, c.budget, len(c.entries)
	c.mu.Unlock()

	if !slices.Equal(order, m.order) {
		t.Fatalf("LRU order %v, model %v", order, m.order)
	}
	if want := len(m.ready) + len(m.claims) + len(m.owners); entries != want {
		t.Fatalf("%d entries, model %d", entries, want)
	}
	if used != m.used || used > budget || budget != m.budget {
		t.Fatalf("used %d budget %d, model used %d budget %d", used, budget, m.used, m.budget)
	}

	st := c.Stats()
	w := m.want
	if st.Misses != w.Misses || st.Bypassed != w.Bypassed || st.Evicted != w.Evicted ||
		st.Abandoned != w.Abandoned || st.Hits < w.Hits || st.SingleflightWait < w.SingleflightWait ||
		st.Hits+st.SingleflightWait != w.Hits+w.SingleflightWait+m.racing {
		t.Fatalf("stats %+v, model %+v with %d racing lookups", st, w, m.racing)
	}
	if n := st.Hits + st.Misses + st.SingleflightWait + st.Bypassed; n != m.lookups {
		t.Fatalf("counters add up to %d lookups, %d made", n, m.lookups)
	}

	if m.lower != nil {
		m.lower.mu.Lock()
		same := len(m.lower.has) == len(m.lowerHas)
		for k := range m.lowerHas {
			same = same && m.lower.has[k]
		}
		m.lower.mu.Unlock()
		if !same {
			t.Fatalf("lower tier holds %v, model %v", m.lower.has, m.lowerHas)
		}
	}

	holders := map[*testVal]int32{}
	for _, v := range m.ready {
		holders[v]++
	}
	for _, v := range m.held {
		holders[v]++
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range m.vals {
		refs, frees := v.refs.Load(), v.frees.Load()
		switch want := holders[v]; {
		case refs != want:
			t.Fatalf("value %d of key %d: %d references, %d holders", v.id, v.key, refs, want)
		case want == 0 && frees != 1, want > 0 && frees != 0:
			t.Fatalf("value %d of key %d released %d times with %d holders", v.id, v.key, frees, want)
		}
	}
}

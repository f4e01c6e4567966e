// Interprocedural cases: forbidden operations that reach a locked
// region only through the module callgraph — a helper one frame down,
// a mutually recursive cycle, and an interface call devirtualized by
// method-set matching. The one-level intraprocedural walk sees none of
// these; the summary propagation reports all three.
package callbacklock

// helperObserve hides the histogram observation one frame down.
func (m *mgr) helperObserve() {
	m.hist.Observe(9)
}

func (m *mgr) indirect() {
	m.s.mu.Lock()
	m.helperObserve() // want "may perform metrics.Histogram.Observe while a shard mutex is held"
	m.s.mu.Unlock()
	m.helperObserve() // fine: the mutex is released
}

// cycleA and cycleB are mutually recursive; the journal emission inside
// the cycle surfaces in both summaries (the SCC converges to the joint
// effect set).
func (m *mgr) cycleA(n int) {
	if n <= 0 {
		return
	}
	m.cycleB(n - 1)
}

func (m *mgr) cycleB(n int) {
	m.jr.Emit(&m.rec)
	m.cycleA(n - 1)
}

func (m *mgr) lockedCycle() {
	m.s.mu.Lock()
	m.cycleA(3) // want "may perform journal.Ring.Emit while a shard mutex is held"
	m.s.mu.Unlock()
}

type notifier interface{ notify() }

type chanNotifier struct{ ch chan struct{} }

func (c *chanNotifier) notify() {
	c.ch <- struct{}{}
}

func (m *mgr) lockedNotify(n notifier) {
	m.s.mu.Lock()
	n.notify() // want "may perform blocking channel send while a shard mutex is held"
	m.s.mu.Unlock()
}

package hwtwbg

import (
	"context"
	"math"
	"testing"
	"time"
)

// fakeClock hands out activation stamps advancing a fixed step per
// call.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

// TestCostModelConvergence drives the estimator with a synthetic,
// perfectly regular workload stamped from a fake clock and checks the
// derived period converges to the closed form T* = sqrt(2·D/(λ·ρ)):
// one deadlock every 10ms (λ = 100/s), activations costing D = 1ms,
// victim spans of 5ms under a 10ms period (ρ = 2·5/10 = 1), giving
// T* = sqrt(2·10⁶ / (10⁻⁷·1)) ns ≈ 4.472ms.
func TestCostModelConvergence(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), step: 10 * time.Millisecond}
	cm := &costModel{}
	for i := 0; i < 200; i++ {
		cm.observeActivation(ActivationReport{Time: clk.now(), Total: time.Millisecond, CyclesSearched: 1})
		cm.observeVictimWait(5*time.Millisecond, 10*time.Millisecond)
	}
	st := cm.state(10*time.Millisecond, 100*time.Microsecond, time.Second)
	if st.Samples != 200 || st.Deadlocks != 200 || st.VictimWaits != 200 {
		t.Fatalf("counters = %d/%d/%d, want 200/200/200", st.Samples, st.Deadlocks, st.VictimWaits)
	}
	if got, want := st.RatePerSec, 100.0; math.Abs(got-want)/want > 0.01 {
		t.Fatalf("rate = %v/s, want ~%v/s", got, want)
	}
	if st.DetectCost != time.Millisecond {
		t.Fatalf("detect cost = %v, want 1ms (constant samples)", st.DetectCost)
	}
	if st.PersistCost != 5*time.Millisecond {
		t.Fatalf("persist cost = %v, want 5ms (constant samples)", st.PersistCost)
	}
	if math.Abs(st.StallRate-1.0) > 1e-9 {
		t.Fatalf("stall rate = %v, want 1", st.StallRate)
	}
	want := time.Duration(math.Sqrt(2 * 1e6 / 1e-7)) // ≈ 4.472ms
	if diff := math.Abs(float64(st.Period - want)); diff/float64(want) > 0.01 {
		t.Fatalf("derived period = %v, want ~%v", st.Period, want)
	}
}

// TestCostModelIdleClampsToMax: with no deadlock in the window λ̂ = 0
// and the period pins to the scheduler's maximum.
func TestCostModelIdleClampsToMax(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), step: 10 * time.Millisecond}
	cm := &costModel{}
	for i := 0; i < 10; i++ {
		cm.observeActivation(ActivationReport{Time: clk.now(), Total: time.Millisecond})
	}
	if got := cm.period(10*time.Millisecond, time.Millisecond, 80*time.Millisecond); got != 80*time.Millisecond {
		t.Fatalf("idle period = %v, want clamped to 80ms max", got)
	}
}

// TestCostModelClampsToMin: a deadlock storm (high λ̂) cannot push the
// derived period below the scheduler's floor.
func TestCostModelClampsToMin(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), step: time.Millisecond}
	cm := &costModel{}
	for i := 0; i < 100; i++ {
		cm.observeActivation(ActivationReport{Time: clk.now(), Total: 10 * time.Microsecond, CyclesSearched: 8})
		cm.observeVictimWait(4*time.Millisecond, time.Millisecond)
	}
	if got := cm.period(time.Millisecond, 500*time.Microsecond, 80*time.Millisecond); got != 500*time.Microsecond {
		t.Fatalf("storm period = %v, want clamped to 500µs min", got)
	}
}

// TestCostModelRateDecays: the rate window forgets — a burst of
// deadlocks followed by a long quiet stretch drives λ̂ (and with it the
// derived period) back toward idle.
func TestCostModelRateDecays(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), step: 10 * time.Millisecond}
	cm := &costModel{}
	for i := 0; i < 50; i++ {
		cm.observeActivation(ActivationReport{Time: clk.now(), Total: time.Millisecond, CyclesSearched: 1})
	}
	burst := cm.state(10*time.Millisecond, 100*time.Microsecond, time.Hour).RatePerSec
	// Quiet: several decay constants of idle activations.
	clk.step = 30 * time.Second
	for i := 0; i < 10; i++ {
		cm.observeActivation(ActivationReport{Time: clk.now(), Total: time.Millisecond})
	}
	quiet := cm.state(10*time.Millisecond, 100*time.Microsecond, time.Hour).RatePerSec
	if quiet >= burst/100 {
		t.Fatalf("rate did not decay: burst %v/s, quiet %v/s", burst, quiet)
	}
}

// TestCostModelVictimWaitWithoutPeriod: a victim caught by a manual
// Detect (no background loop, period 0) still updates P̂ but cannot
// contribute a stall-rate sample.
func TestCostModelVictimWaitWithoutPeriod(t *testing.T) {
	cm := &costModel{}
	cm.observeVictimWait(3*time.Millisecond, 0)
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if cm.persistNs != float64(3*time.Millisecond) {
		t.Fatalf("persistNs = %v, want 3ms", time.Duration(cm.persistNs))
	}
	if cm.stallRate != 0 {
		t.Fatalf("stallRate = %v, want untouched", cm.stallRate)
	}
	if cm.victimWaits != 1 {
		t.Fatalf("victimWaits = %d, want 1", cm.victimWaits)
	}
}

// TestSchedulingCostModel drives a manager under Scheduling "costmodel"
// tick by tick: idle activations pin the period at MaxPeriod (λ̂ = 0);
// after a real deadlock is formed, caught and charged to the model, the
// derived period drops below the maximum and the victim's wait span
// lands in the persistence estimate.
func TestSchedulingCostModel(t *testing.T) {
	tick := make(chan time.Time)
	notify := make(chan time.Duration, 1)
	m := Open(Options{
		Period:      4 * time.Millisecond,
		MaxPeriod:   32 * time.Millisecond,
		Scheduling:  SchedulingCostModel,
		Shards:      1,
		schedTick:   tick,
		schedNotify: notify,
	})
	defer m.Close()
	step := func() time.Duration {
		t.Helper()
		tick <- time.Time{}
		select {
		case d := <-notify:
			return d
		case <-time.After(5 * time.Second):
			t.Fatal("scheduler never reported a period")
			return 0
		}
	}
	// Idle: no deadlocks in the window, so λ̂ = 0 and the model backs
	// off to MaxPeriod immediately (not the adaptive doubling walk).
	for i := 0; i < 3; i++ {
		if got := step(); got != 32*time.Millisecond {
			t.Fatalf("idle tick %d: period = %v, want MaxPeriod", i, got)
		}
	}

	ctx := context.Background()
	a, b := m.Begin(), m.Begin()
	if err := a.Lock(ctx, "cm/u", X); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(ctx, "cm/v", X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- a.Lock(ctx, "cm/v", X) }()
	waitBlocked(t, m, a.ID())
	go func() { errs <- b.Lock(ctx, "cm/u", X) }()
	waitBlocked(t, m, b.ID())
	got := step()
	if got >= 32*time.Millisecond {
		t.Fatalf("post-deadlock period = %v, want below MaxPeriod", got)
	}
	if got < m.schedMin {
		t.Fatalf("post-deadlock period = %v, below scheduler floor %v", got, m.schedMin)
	}
	<-errs
	<-errs

	st := m.MetricsSnapshot().CostModel
	if st.Deadlocks == 0 {
		t.Fatalf("cost model saw no deadlock: %+v", st)
	}
	if st.VictimWaits == 0 || st.PersistCost <= 0 {
		t.Fatalf("victim wait span not charged: %+v", st)
	}
	if st.RatePerSec <= 0 {
		t.Fatalf("rate estimate = %v, want positive after a deadlock", st.RatePerSec)
	}
	if st.Samples < 4 {
		t.Fatalf("samples = %d, want every tick observed", st.Samples)
	}
}

// TestSchedulingFixedKeepsPeriod drives the background loop tick by
// tick under every spelling that selects the fixed scheduler — the
// default, the explicit constant, and an unknown value such as the
// retired "adaptive" — and requires the period to stay Options.Period
// across idle activations.
func TestSchedulingFixedKeepsPeriod(t *testing.T) {
	for _, sched := range []string{"", SchedulingFixed, "adaptive"} {
		tick := make(chan time.Time)
		notify := make(chan time.Duration, 1)
		m := Open(Options{
			Period:      4 * time.Millisecond,
			MaxPeriod:   32 * time.Millisecond,
			Scheduling:  sched,
			schedTick:   tick,
			schedNotify: notify,
		})
		for i := 0; i < 3; i++ {
			tick <- time.Time{}
			select {
			case got := <-notify:
				if live := m.MetricsSnapshot().Period; got != 4*time.Millisecond || live != got {
					t.Errorf("Scheduling %q tick %d: period = %v (MetricsSnapshot().Period %v), want 4ms", sched, i, got, live)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Scheduling %q: scheduler never reported a period", sched)
			}
		}
		m.Close()
	}
}

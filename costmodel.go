package hwtwbg

import (
	"math"
	"sync"
	"time"
)

// The online detection-scheduling cost model (Ling/Chen/Chiang, "On
// Optimal Deadlock Detection Scheduling"). The expected cost per unit
// time of running the detector every T is
//
//	C(T) = D/T + λ·ρ·T/2
//
// where D is the cost of one activation, λ the deadlock formation rate,
// and ρ the cost rate of a persisting deadlock (stalled transactions
// accruing wait, so a deadlock that forms uniformly within a period
// persists T/2 in expectation and costs ρ·T/2). Minimizing over T gives
// the cost-minimizing period
//
//	T* = sqrt(2·D / (λ·ρ)).
//
// All three inputs are measured online from the detector's own
// telemetry — the same records the flight recorder journals:
//
//   - λ from cycle counts per activation (KindDetect records carry
//     the cycle count) over the time between activation stamps
//     (ActivationReport.Time, the manager's clock), kept as an
//     exponentially time-decayed window so the estimate tracks workload
//     shifts instead of averaging over the process lifetime;
//   - D as an EWMA of ActivationReport.Total (the full activation,
//     acquire/copy/build/search/resolve/validate/wake);
//   - ρ from deadlock victim wait spans: a victim aborted after
//     waiting S under a live period T implies the broken cycle accrued
//     roughly S ≈ (ρ/members)·T/2 stalled time per member, so each span
//     contributes the sample 2·S/T to the EWMA of ρ (floored at 1 when
//     deriving — a persisting deadlock stalls at least one transaction).
//
// With no deadlock observed in the decay window λ̂ → 0 and T* → ∞, so
// the derived period clamps to the scheduler's maximum — the model
// checks as rarely as allowed until conflict pressure reappears.
type costModel struct {
	mu      sync.Mutex
	lastObs time.Time // previous activation's ActivationReport.Time (zero until first)

	// Exponentially time-decayed observation window for the rate.
	obsNs  float64 // decayed observed nanoseconds
	cycles float64 // decayed deadlock (cycle) count

	detectNs  float64 // EWMA activation cost, ns
	persistNs float64 // EWMA victim wait span, ns
	stallRate float64 // EWMA stalled-transaction accrual rate ρ

	samples     int    // activations observed
	deadlocks   uint64 // lifetime cycles observed
	victimWaits uint64 // lifetime victim wait-span samples
	periodNs    int64  // last derived period (0 until first derivation)
}

// costEWMAAlpha weights new samples into the cost EWMAs; costDecayTau
// is the rate window's e-folding time — observations older than a few
// τ effectively stop influencing λ̂.
const (
	costEWMAAlpha = 0.2
	costDecayTau  = 30 * time.Second
)

func ewma(prev, sample float64) float64 {
	if prev == 0 {
		return sample
	}
	return prev + costEWMAAlpha*(sample-prev)
}

// observeActivation folds one finished detector activation into the
// model: the activation's cost into D̂ and its cycle count — over the
// time elapsed since the previous activation, both read from the
// reports' stamps (the manager's clock) — into λ̂.
func (cm *costModel) observeActivation(rep ActivationReport) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if !cm.lastObs.IsZero() {
		dt := rep.Time.Sub(cm.lastObs)
		if dt > 0 {
			decay := math.Exp(-float64(dt) / float64(costDecayTau))
			cm.obsNs = cm.obsNs*decay + float64(dt)
			cm.cycles = cm.cycles*decay + float64(rep.CyclesSearched)
		}
	}
	cm.lastObs = rep.Time
	cm.detectNs = ewma(cm.detectNs, float64(rep.Total))
	cm.samples++
	cm.deadlocks += uint64(rep.CyclesSearched)
}

// observeVictimWait folds one deadlock victim's wait span (how long the
// transaction had been blocked when the detector aborted it) into the
// persistence-cost estimate. period is the detection interval that was
// live while the victim waited; when it is unknown (manual Detect with
// no background loop) the span still updates P̂ but not ρ̂.
func (cm *costModel) observeVictimWait(span, period time.Duration) {
	if span <= 0 {
		return
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	cm.persistNs = ewma(cm.persistNs, float64(span))
	cm.victimWaits++
	if period > 0 {
		cm.stallRate = ewma(cm.stallRate, 2*float64(span)/float64(period))
	}
}

// period derives the cost-minimizing detection interval T* =
// sqrt(2·D/(λ·ρ)), clamped to [min, max]. cur is the interval in
// effect, used as the detection-cost fallback before any activation has
// been observed.
func (cm *costModel) period(cur, min, max time.Duration) time.Duration {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.periodLocked(cur, min, max)
}

func (cm *costModel) periodLocked(cur, min, max time.Duration) time.Duration {
	out := max
	if lambda := cm.rateLocked(); lambda > 0 {
		d := cm.detectNs
		if d <= 0 {
			d = float64(cur)
		}
		rho := cm.stallRate
		if rho < 1 {
			rho = 1
		}
		opt := time.Duration(math.Sqrt(2 * d / (lambda * rho)))
		if opt < out {
			out = opt
		}
	}
	if out < min {
		out = min
	}
	if out > max {
		out = max
	}
	cm.periodNs = int64(out)
	return out
}

// rateLocked is λ̂ in deadlocks per nanosecond.
func (cm *costModel) rateLocked() float64 {
	if cm.obsNs <= 0 {
		return 0
	}
	return cm.cycles / cm.obsNs
}

// CostModelState is a point-in-time view of the detection-scheduling
// cost model: the estimated deadlock formation rate, the measured
// detection and persistence costs, and the cost-minimizing period those
// estimates imply. Exposed via MetricsSnapshot.CostModel, the
// hwtwbg_costmodel_* Prometheus series, the STATS wire keys and the
// cost_model object of the debug server's /snapshot.
type CostModelState struct {
	// Samples counts detector activations folded into the model;
	// Deadlocks the cycles they carried; VictimWaits the victim
	// wait-span observations.
	Samples     int    `json:"samples"`
	Deadlocks   uint64 `json:"deadlocks"`
	VictimWaits uint64 `json:"victim_waits"`
	// RatePerSec is λ̂, the estimated deadlock formation rate
	// (exponentially time-decayed, e-folding 30s).
	RatePerSec float64 `json:"rate_per_sec"`
	// DetectCost is D̂, the EWMA cost of one detector activation.
	DetectCost time.Duration `json:"detect_cost_ns"`
	// PersistCost is P̂, the EWMA deadlock victim wait span — how much
	// blocked time one caught deadlock had accrued.
	PersistCost time.Duration `json:"persist_cost_ns"`
	// StallRate is ρ̂, the estimated stalled-transaction accrual rate of
	// a persisting deadlock (dimensionless; floored at 1 when deriving).
	StallRate float64 `json:"stall_rate"`
	// Period is the cost-minimizing detection interval T* =
	// sqrt(2·D̂/(λ̂·ρ̂)), clamped to the scheduler's bounds. Under
	// Options.Scheduling "costmodel" this drives the background
	// detector; under other schedulings it is advisory.
	Period time.Duration `json:"period_ns"`
}

// state snapshots the model, deriving a fresh period under the given
// bounds.
func (cm *costModel) state(cur, min, max time.Duration) CostModelState {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return CostModelState{
		Samples:     cm.samples,
		Deadlocks:   cm.deadlocks,
		VictimWaits: cm.victimWaits,
		RatePerSec:  cm.rateLocked() * 1e9,
		DetectCost:  time.Duration(cm.detectNs),
		PersistCost: time.Duration(cm.persistNs),
		StallRate:   cm.stallRate,
		Period:      cm.periodLocked(cur, min, max),
	}
}

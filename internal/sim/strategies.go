package sim

import (
	"hwtwbg/internal/baseline/agrawal"
	"hwtwbg/internal/baseline/elmagarmid"
	"hwtwbg/internal/baseline/jiang"
	"hwtwbg/internal/baseline/prevent"
	"hwtwbg/internal/baseline/timeout"
	"hwtwbg/internal/baseline/wfg"
	"hwtwbg/internal/detect"
	"hwtwbg/internal/table"
)

// ParkStats accumulates the Park-specific counters across activations.
type ParkStats struct {
	Repositionings int
	Salvaged       int
	EdgeVisits     int
}

// ParkResolver adapts the H/W-TWBG detection-resolution algorithm
// (internal/detect) to the Resolver interface. One detector serves every
// activation; onBlock picks when it runs: on every period boundary (the
// paper's periodic algorithm) or right after every block (its continuous
// companion).
type ParkResolver struct {
	d       *detect.Detector
	label   string
	onBlock bool
	stats   ParkStats
}

// Name identifies the strategy in reports.
func (p *ParkResolver) Name() string { return p.label }

// OnBlocked performs one activation for the continuous companion and is
// a no-op for the periodic strategies.
func (p *ParkResolver) OnBlocked(table.TxnID, int64) []table.TxnID {
	if !p.onBlock {
		return nil
	}
	return p.activate().Aborted
}

// OnTick performs one periodic activation; it is a no-op for the
// continuous companion.
func (p *ParkResolver) OnTick(int64) []table.TxnID {
	if p.onBlock {
		return nil
	}
	return p.activate().Aborted
}

// activate runs the detector once and accumulates its counters. The
// Result is the detector's, valid until the next activation; the
// simulator consumes its victims at once.
func (p *ParkResolver) activate() detect.Result {
	res := p.d.Run()
	p.stats.Repositionings += len(res.Repositioned)
	p.stats.Salvaged += len(res.Salvaged)
	p.stats.EdgeVisits += res.EdgeVisits
	return res
}

// Forget is a no-op: the detector rebuilds its state each activation.
func (p *ParkResolver) Forget(table.TxnID) {}

// Park returns the accumulated Park-specific counters.
func (p *ParkResolver) Park() ParkStats { return p.stats }

// Park is the reference strategy: the paper's periodic H/W-TWBG
// detector with locks-held victim costs.
func Park(s *Sim) Resolver {
	return &ParkResolver{
		label: "park-hwtwbg",
		d:     detect.New(s.tb, detect.Config{Cost: s.lockCost}),
	}
}

// ParkNoTDR2 is the ablation: identical except TDR-2 is disabled, so
// every deadlock is resolved by abort.
func ParkNoTDR2(s *Sim) Resolver {
	return &ParkResolver{
		label: "park-no-tdr2",
		d:     detect.New(s.tb, detect.Config{Cost: s.lockCost, DisableTDR2: true}),
	}
}

// ParkUniformCost is the ablation with constant victim costs.
func ParkUniformCost(s *Sim) Resolver {
	return &ParkResolver{
		label: "park-uniform-cost",
		d:     detect.New(s.tb, detect.Config{}),
	}
}

// ParkContinuous reconstructs the COMPSAC'91 continuous algorithm the
// paper names as its companion: Park's detector, activated right after
// every block instead of on every period boundary. Between activations
// the table is deadlock-free, so every cycle an activation finds passes
// through the transaction that just blocked.
func ParkContinuous(s *Sim) Resolver {
	return &ParkResolver{
		label:   "park-continuous",
		onBlock: true,
		d:       detect.New(s.tb, detect.Config{Cost: s.lockCost}),
	}
}

// WFGContinuous is the textbook continuous wait-for-graph detector with
// min-cost victims.
func WFGContinuous(s *Sim) Resolver {
	d := wfg.New(s.tb)
	d.Cost = s.lockCost
	return d
}

// WFGPeriodic is the same detector activated periodically.
func WFGPeriodic(s *Sim) Resolver {
	d := wfg.New(s.tb)
	d.Cost = s.lockCost
	d.Periodic = true
	return d
}

// Agrawal is the single-edge periodic detector of Agrawal/Carey/DeWitt.
func Agrawal(s *Sim) Resolver {
	d := agrawal.New(s.tb)
	d.Cost = s.lockCost
	return d
}

// Elmagarmid is the continuous abort-the-requester detector.
func Elmagarmid(s *Sim) Resolver {
	return elmagarmid.New(s.tb)
}

// Jiang is the continuous matrix-based detector.
func Jiang(s *Sim) Resolver {
	d := jiang.New(s.tb)
	d.Cost = s.lockCost
	return d
}

// WaitDie is the non-preemptive timestamp prevention scheme of
// Rosenkrantz et al. (the detection-vs-prevention axis of reference [2]).
func WaitDie(s *Sim) Resolver {
	return prevent.New(s.tb, prevent.WaitDie, s.priority)
}

// WoundWait is the preemptive timestamp prevention scheme.
func WoundWait(s *Sim) Resolver {
	return prevent.New(s.tb, prevent.WoundWait, s.priority)
}

// Timeout builds the graph-free strategy with the given wait limit.
func Timeout(limit int64) Factory {
	return func(s *Sim) Resolver {
		return timeout.New(s.tb, limit)
	}
}

// AllStrategies returns the full comparison lineup used by the
// benchmark tables (timeout limit chosen relative to the period).
func AllStrategies(period int64) map[string]Factory {
	return map[string]Factory{
		"park-hwtwbg":     Park,
		"park-no-tdr2":    ParkNoTDR2,
		"park-continuous": ParkContinuous,
		"wfg-continuous":  WFGContinuous,
		"wfg-periodic":    WFGPeriodic,
		"agrawal":         Agrawal,
		"elmagarmid":      Elmagarmid,
		"jiang":           Jiang,
		"wait-die":        WaitDie,
		"wound-wait":      WoundWait,
		"timeout":         Timeout(5 * period),
	}
}

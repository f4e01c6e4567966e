package sim

import (
	"hwtwbg/internal/baseline/agrawal"
	"hwtwbg/internal/baseline/elmagarmid"
	"hwtwbg/internal/baseline/jiang"
	"hwtwbg/internal/baseline/prevent"
	"hwtwbg/internal/baseline/timeout"
	"hwtwbg/internal/baseline/wfg"
	"hwtwbg/internal/continuous"
	"hwtwbg/internal/detect"
	"hwtwbg/internal/table"
)

// ParkStats accumulates the Park-specific counters across activations.
type ParkStats struct {
	Repositionings int
	Salvaged       int
	EdgeVisits     int
}

// ParkResolver adapts the periodic H/W-TWBG detection-resolution
// algorithm (internal/detect) to the Resolver interface.
type ParkResolver struct {
	d     *detect.Detector
	label string
	stats ParkStats
}

// Name identifies the strategy in reports.
func (p *ParkResolver) Name() string { return p.label }

// OnBlocked is a no-op: the algorithm is periodic.
func (p *ParkResolver) OnBlocked(table.TxnID, int64) []table.TxnID { return nil }

// OnTick performs one periodic activation. The victims slice is the
// detector's, valid until the next OnTick; the simulator consumes it at
// once.
func (p *ParkResolver) OnTick(now int64) []table.TxnID {
	res := p.d.Run()
	p.stats.Repositionings += len(res.Repositioned)
	p.stats.Salvaged += len(res.Salvaged)
	p.stats.EdgeVisits += res.EdgeVisits
	return res.Aborted
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

// continuousResolver adapts the continuous detector so the simulator
// can also harvest its TDR-2 statistics.
type continuousResolver struct {
	*continuous.Detector
}

// Park exposes the continuous detector's counters in ParkStats form.
func (c continuousResolver) Park() ParkStats {
	_, _, reps := c.Stats()
	return ParkStats{Repositionings: reps}
}

// ParkContinuous is the reconstruction of the COMPSAC'91 continuous
// companion: the same H/W-TWBG + TDR machinery activated on every block.
func ParkContinuous(s *Sim) Resolver {
	d := continuous.New(s.tb)
	d.Cost = s.lockCost
	return continuousResolver{d}
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

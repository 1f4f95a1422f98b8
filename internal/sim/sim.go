// Package sim is a discrete-time simulator of allocation strategies over a
// load trace, reproducing the paper's §8.3 study: because running the full
// engine for 4.5 months of trace is impractical (the paper makes the same
// argument), the simulator models machine counts, migration durations and
// effective capacity analytically — using exactly the same plan.Params
// model as the live system, and the same policy.Policy decisions as the
// live controller — and measures Eq. 1 cost and the percentage of time with
// insufficient capacity for each strategy (Figs 12 and 13).
package sim

import (
	"fmt"

	"pstore/internal/plan"
	"pstore/internal/policy"
	"pstore/internal/timeseries"
)

// SlotState records the simulated system at one slot (for Fig 13 plots).
type SlotState struct {
	Load      float64
	Machines  int
	EffCap    float64
	Migrating bool
}

// Result summarizes one simulation run.
type Result struct {
	Strategy          string
	Q                 float64
	Slots             int
	Cost              float64 // Σ machines over slots (Eq. 1, machine-slots)
	InsufficientSlots int
	Moves             int
	States            []SlotState // populated only when requested
}

// InsufficientFrac returns the fraction of simulated time with load above
// effective capacity.
func (r *Result) InsufficientFrac() float64 {
	if r.Slots == 0 {
		return 0
	}
	return float64(r.InsufficientSlots) / float64(r.Slots)
}

// AvgMachines returns the average machines allocated.
func (r *Result) AvgMachines() float64 {
	if r.Slots == 0 {
		return 0
	}
	return r.Cost / float64(r.Slots)
}

// Run simulates the policy over load slots [start, len), beginning with n0
// machines. At each slot without a move in progress the policy sees the load
// history up to that slot; a decision to resize starts a move at the next
// slot and lasts MoveTime slots: every move runs at rate R, including a
// Fast fallback. keepStates retains the per-slot trajectory.
func Run(load *timeseries.Series, start, n0 int, strat policy.Policy, p plan.Params, keepStates bool) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if start < 0 || start >= load.Len() {
		return nil, fmt.Errorf("sim: start %d out of range", start)
	}
	if n0 < 1 {
		return nil, fmt.Errorf("sim: n0 must be ≥ 1")
	}
	res := &Result{Strategy: strat.Name(), Q: p.Q}
	if keepStates {
		res.States = make([]SlotState, 0, load.Len()-start)
	}

	n := n0
	// In-progress move state.
	var moving bool
	var moveFrom, moveTo, moveSlots, progress int
	var segs []plan.AllocSegment

	for t := start; t < load.Len(); t++ {
		l := load.At(t)
		var machines int
		var effCap float64
		if moving {
			progress++
			fEnd := float64(progress) / float64(moveSlots)
			fMid := (float64(progress) - 0.5) / float64(moveSlots)
			machines = machinesAt(segs, fMid)
			effCap = p.EffCap(moveFrom, moveTo, fEnd)
			if progress >= moveSlots {
				moving = false
				n = moveTo
			}
		} else {
			machines = n
			effCap = p.Cap(n)
		}
		res.Cost += float64(machines)
		res.Slots++
		if l > effCap+1e-9 {
			res.InsufficientSlots++
		}
		if keepStates {
			res.States = append(res.States, SlotState{Load: l, Machines: machines, EffCap: effCap, Migrating: moving})
		}
		if !moving && t+1 < load.Len() {
			d, err := strat.Decide(load.Slice(0, t+1), n)
			if err != nil {
				return nil, fmt.Errorf("sim: %s at slot %d: %w", strat.Name(), t, err)
			}
			if d.Target < 1 {
				return nil, fmt.Errorf("sim: %s decided %d machines at slot %d", strat.Name(), d.Target, t)
			}
			if d.Target != n {
				moveFrom, moveTo = n, d.Target
				moveSlots = ceilSlots(p.MoveTime(n, d.Target))
				segs = p.AllocationSegments(n, d.Target)
				progress = 0
				moving = true
				res.Moves++
			}
		}
	}
	return res, nil
}

func ceilSlots(t float64) int {
	s := int(t)
	if float64(s) < t {
		s++
	}
	if s < 1 {
		s = 1
	}
	return s
}

// machinesAt looks up the allocation step function at fraction f.
func machinesAt(segs []plan.AllocSegment, f float64) int {
	for _, s := range segs {
		if f >= s.FracStart && f < s.FracEnd {
			return s.Machines
		}
	}
	if len(segs) == 0 {
		return 0
	}
	return segs[len(segs)-1].Machines
}

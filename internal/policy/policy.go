// Package policy holds the scaling decisions of every elasticity strategy,
// each written once. The live controller (internal/controller) and the
// §8.3 simulator (internal/sim) both call the same Decide, so the simulator
// of Figs 12–13 shares the live system's decisions as well as its model:
// the controller turns a Decision into a migration, the simulator into an
// analytic move.
package policy

import (
	"fmt"
	"sync/atomic"

	"pstore/internal/plan"
	"pstore/internal/predict"
	"pstore/internal/timeseries"
)

// Decision kinds. They are also the controller's event kinds.
const (
	Hold       = "hold"
	ScaleOut   = "scale-out"
	ScaleIn    = "scale-in"
	Fallback   = "fallback"   // reactive scale-out after an infeasible plan
	Infeasible = "infeasible" // no plan fits and more machines would not help
)

// FastRate is the migration-rate multiplier of a Fast fallback (R×8, §8.2).
const FastRate = 8

// Decision is one slot's verdict. Target equals the current machine count
// unless Kind is ScaleOut, ScaleIn or Fallback.
type Decision struct {
	Target int
	Kind   string
	Note   string
	// Fast makes a fallback migrate at FastRate×R instead of R.
	Fast bool
}

// Policy decides machine counts. Decide is called once per slot while no
// reconfiguration is in progress, with the observed load history up to and
// including the current slot (one entry per slot, in the units of the
// policy's plan.Params) and the machines allocated now. A Policy keeps its
// own state across calls (confirmation votes, streaks), so one value serves
// one run.
type Policy interface {
	Name() string
	Decide(history *timeseries.Series, current int) (Decision, error)
}

func hold(current int, note string) Decision {
	return Decision{Target: current, Kind: Hold, Note: note}
}

// resize moves to target, or holds if already there.
func resize(current, target int) Decision {
	switch {
	case target > current:
		return Decision{Target: target, Kind: ScaleOut}
	case target < current:
		return Decision{Target: target, Kind: ScaleIn}
	}
	return hold(current, "")
}

// Static never reconfigures: the baseline of Figs 9a/9b and the "Static"
// curves of Figs 12–13.
type Static struct {
	Machines int
}

// Name implements Policy.
func (s Static) Name() string { return fmt.Sprintf("Static-%d", s.Machines) }

// Decide implements Policy.
func (s Static) Decide(_ *timeseries.Series, current int) (Decision, error) {
	return resize(current, s.Machines), nil
}

// Simple scales up every morning and down every night on a fixed schedule —
// the paper's "Simple" strategy, which works until the load deviates from
// the pattern (Fig 13, right). The slot of the day is (history.Len()-1)
// mod SlotsPerDay.
type Simple struct {
	SlotsPerDay   int
	MorningSlot   int // slot-of-day to scale up
	NightSlot     int // slot-of-day to scale down
	DayMachines   int
	NightMachines int
}

// Name implements Policy.
func (s Simple) Name() string { return "Simple" }

// Decide implements Policy.
func (s Simple) Decide(history *timeseries.Series, current int) (Decision, error) {
	slot := (history.Len() - 1) % s.SlotsPerDay
	want := s.NightMachines
	if s.MorningSlot <= slot && slot < s.NightSlot {
		want = s.DayMachines
	}
	return resize(current, want), nil
}

// Reactive is the E-Store-style baseline (§2, §8.2): it scales out only
// after observing overload and scales in after a sustained low streak, so
// its migrations compete with peak traffic (Fig 9c, the purple curve of
// Fig 12). The B2W workload is hash-uniform, so E-Store's hot-tuple
// detection degenerates to aggregate-load scaling (§8.1).
type Reactive struct {
	// Params supplies Q (provisioning target) and QHat (saturation).
	Params plan.Params
	// HighFraction of QHat·N above which the system is overloaded
	// (default 0.95).
	HighFraction float64
	// ScaleInStreak is how many consecutive low-load slots must pass before
	// scaling in (default 3), mirroring P-Store's confirmations so neither
	// strategy flaps.
	ScaleInStreak int
	// ScaleOutStreak is how many consecutive overloaded slots must pass
	// before scaling out (default 1). E-Store confirms an imbalance with a
	// detailed-monitoring period before acting (§2); values above 1 model
	// that detection delay.
	ScaleOutStreak int
	// MaxNodes caps scale-out (0 = unlimited).
	MaxNodes int

	low, high int
}

// Name implements Policy.
func (r *Reactive) Name() string { return "Reactive" }

// Decide implements Policy.
func (r *Reactive) Decide(history *timeseries.Series, current int) (Decision, error) {
	load := history.At(history.Len() - 1)
	p := r.Params
	switch {
	case load > orDefault(r.HighFraction, 0.95)*p.QHat*float64(current):
		r.low = 0
		r.high++
		if streak := orDefault(r.ScaleOutStreak, 1); r.high < streak {
			return hold(current, fmt.Sprintf("overload %d/%d", r.high, streak)), nil
		}
		r.high = 0
		// Already overloaded: scale to the size that holds this load with
		// headroom. This is the reactive weakness — the migration now runs
		// on a saturated cluster.
		target := max(p.RequiredMachines(load), current+1)
		if r.MaxNodes > 0 {
			target = min(target, r.MaxNodes)
		}
		return resize(current, max(target, current)), nil
	case p.RequiredMachines(load) < current:
		r.high = 0
		r.low++
		if r.low < orDefault(r.ScaleInStreak, 3) {
			return hold(current, ""), nil
		}
		r.low = 0
		return resize(current, p.RequiredMachines(load)), nil
	}
	r.low, r.high = 0, 0
	return hold(current, ""), nil
}

// PStore is the predictive strategy (§4–§6): forecast the load, inflate it
// for headroom, plan with the dynamic program of §4.3, and act on the plan's
// first move only when it is due — receding-horizon control. A scale-in
// needs Confirmations consecutive plans calling for it. When no plan is
// feasible (an unpredicted spike) it falls back to reactive scaling
// straight to the required size (§4.3.1).
type PStore struct {
	// Params supplies Q, Q̂, D and P for the planner.
	Params plan.Params
	// Predictor forecasts future load; it must already be fitted.
	Predictor predict.Model
	// Horizon is how many slots ahead to plan (τ_max ≥ 2·D/P, §5).
	Horizon int
	// Inflate multiplies predictions for headroom (paper: 1.15). 0 means 1.
	Inflate float64
	// Confirmations is the number of consecutive plans that must call for
	// a scale-in before it executes (default and paper: 3).
	Confirmations int
	// MaxNodes caps the fallback's scale-out (0 = unlimited).
	MaxNodes int
	// FastFallback runs the fallback at FastRate×R (§8.2's second strategy).
	FastFallback bool
	// Label names the strategy in results (default "P-Store").
	Label string

	votes int
	floor atomic.Int64
}

// Name implements Policy.
func (s *PStore) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "P-Store"
}

// SetFloor sets a minimum machine count kept regardless of predictions —
// the paper's manual provisioning for rare but expected events (§1: "e.g.
// special promotions for B2W"). 0 clears it. The floor enters the plan as a
// load of at least Cap(floor) at every future slot, so the planner still
// times the scale-out as late as feasibility allows. Safe to call while
// another goroutine runs Decide; it applies from the next Decide.
func (s *PStore) SetFloor(machines int) { s.floor.Store(int64(max(machines, 0))) }

// Floor returns the manual-provisioning floor (0 = none).
func (s *PStore) Floor() int { return int(s.floor.Load()) }

// Decide implements Policy.
func (s *PStore) Decide(history *timeseries.Series, current int) (Decision, error) {
	if history.Len() < s.Predictor.MinHistory() {
		return hold(current, "warming up"), nil
	}
	forecast, err := s.Predictor.Forecast(history, s.Horizon)
	if err != nil {
		return hold(current, ""), fmt.Errorf("policy: forecast: %w", err)
	}
	loads := make([]float64, s.Horizon+1)
	loads[0] = history.At(history.Len() - 1)
	inflate := orDefault(s.Inflate, 1)
	for i, v := range forecast {
		loads[i+1] = v * inflate
	}
	if floor := s.Floor(); floor > 0 {
		floorLoad := s.Params.Cap(floor)
		for i := 1; i < len(loads); i++ {
			loads[i] = max(loads[i], floorLoad)
		}
	}

	pl, err := plan.BestMoves(loads, current, s.Params)
	if err == plan.ErrInfeasible {
		s.votes = 0
		return s.fallback(loads, current), nil
	}
	if err != nil {
		return hold(current, ""), fmt.Errorf("policy: planning: %w", err)
	}
	move, acted := pl.FirstAction()
	switch {
	case !acted:
		s.votes = 0
		return hold(current, ""), nil
	case move.To > move.From:
		// The plan already delays the move as late as possible, so act only
		// when it is due to start now.
		s.votes = 0
		if move.Start > 0 {
			return hold(current, fmt.Sprintf("scale-out %d→%d scheduled at +%d slots", move.From, move.To, move.Start)), nil
		}
		return Decision{Target: move.To, Kind: ScaleOut}, nil
	}
	s.votes++
	confirm := orDefault(s.Confirmations, 3)
	if s.votes < confirm || move.Start > 0 {
		return hold(current, fmt.Sprintf("scale-in %d→%d vote %d/%d", move.From, move.To, s.votes, confirm)), nil
	}
	s.votes = 0
	return Decision{Target: move.To, Kind: ScaleIn}, nil
}

// fallback handles an infeasible plan: the load needs more capacity than
// any feasible schedule provides, so scale straight to the machines the
// peak of loads requires, capped at MaxNodes.
func (s *PStore) fallback(loads []float64, current int) Decision {
	peak := 0.0
	for _, v := range loads {
		peak = max(peak, v)
	}
	target := s.Params.RequiredMachines(peak)
	if s.MaxNodes > 0 {
		target = min(target, s.MaxNodes)
	}
	if target <= current {
		// Overloaded now, but more machines would not help in time.
		return Decision{Target: current, Kind: Infeasible}
	}
	if s.FastFallback {
		return Decision{Target: target, Kind: Fallback, Note: fmt.Sprintf("rate R×%d", FastRate), Fast: true}
	}
	return Decision{Target: target, Kind: Fallback, Note: "rate R"}
}

// orDefault returns v, or def when v is unset (≤ 0).
func orDefault[T int | float64](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

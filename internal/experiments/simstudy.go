package experiments

import (
	"fmt"

	"pstore/internal/plan"
	"pstore/internal/policy"
	"pstore/internal/predict"
	"pstore/internal/sim"
	"pstore/internal/timeseries"
	"pstore/internal/workload"
)

// SimStudyConfig parameterizes the long-horizon allocation simulations of
// §8.3 (Figs 12 and 13).
type SimStudyConfig struct {
	// Days of synthetic B2W load at 5-minute slots; the paper simulates
	// 4.5 months (≈135 days) including Black Friday.
	Days int
	// TrainDays of the trace are used to fit SPAR (paper: 4 weeks).
	TrainDays int
	// BlackFridayDay (index) injects the year's biggest surge; -1 for
	// none.
	BlackFridayDay int
	// QFactors sweep the capacity buffer: each factor scales the default
	// Q (65% of saturation), producing one point per strategy on the
	// capacity-cost plane of Fig 12.
	QFactors []float64
	// Seed for the trace generator.
	Seed int64
}

// DefaultSimStudyConfig returns a configuration mirroring §8.3 at reduced
// length (the cmd/simulate tool runs the full 135 days).
func DefaultSimStudyConfig() SimStudyConfig {
	return SimStudyConfig{
		Days:           60,
		TrainDays:      21,
		BlackFridayDay: 50,
		QFactors:       []float64{0.8, 1.0, 1.25},
		Seed:           5,
	}
}

// SimPoint is one point of Fig 12: a strategy at one Q setting.
type SimPoint struct {
	Strategy         string
	QFactor          float64
	Cost             float64
	NormalizedCost   float64 // normalized to P-Store SPAR at QFactor 1.0
	InsufficientFrac float64
	AvgMachines      float64
	Moves            int
}

// SimStudyResult is the Fig 12 sweep.
type SimStudyResult struct {
	Points []SimPoint
	Slots  int
}

// simEnvironment holds the shared trace and parameters of a §8.3 study.
type simEnvironment struct {
	load        *timeseries.Series
	params      plan.Params // at QFactor 1.0
	start       int         // first simulated slot
	slotsPerDay int
}

// newSimEnvironment generates the trace and derives paper-like parameters:
// the peak needs ≈10 machines at Q, and D = 77 minutes (15.4 slots).
func newSimEnvironment(cfg SimStudyConfig) (*simEnvironment, error) {
	if cfg.Days <= cfg.TrainDays {
		return nil, fmt.Errorf("experiments: need Days > TrainDays")
	}
	gen := workload.DefaultB2WConfig()
	gen.Days = cfg.Days
	gen.SlotsPerDay = 288 // 5-minute slots, the paper's sim granularity
	gen.Seed = cfg.Seed
	gen.BlackFridayDay = cfg.BlackFridayDay
	load := workload.GenerateB2W(gen)

	// Q chosen so the nominal diurnal peak needs ~9 machines (the paper's
	// 10-node cluster); Q̂ = (80/65)·Q. Trace values are already requests
	// per slot.
	q := gen.PeakLoad / 9
	params := plan.Params{
		Q:                 q,
		QHat:              q * 0.80 / 0.65,
		D:                 77.0 / 5.0, // the paper's 77 minutes, in slots
		PartitionsPerNode: 6,
	}
	return &simEnvironment{
		load:        load,
		params:      params,
		start:       cfg.TrainDays * gen.SlotsPerDay,
		slotsPerDay: gen.SlotsPerDay,
	}, nil
}

// horizonSlots returns the planning horizon: 2D/P rounded up, at least 12
// slots (one hour).
func (e *simEnvironment) horizonSlots() int {
	h := int(2*e.params.D/float64(e.params.PartitionsPerNode)) + 1
	if h < 12 {
		h = 12
	}
	return h
}

// CapacityCostStudy reproduces Fig 12: every strategy simulated over the
// post-training trace at each Q factor, yielding (cost, % time with
// insufficient capacity) points. Costs are normalized to P-Store SPAR at
// factor 1.0.
func CapacityCostStudy(cfg SimStudyConfig) (*SimStudyResult, error) {
	env, err := newSimEnvironment(cfg)
	if err != nil {
		return nil, err
	}
	spar := predict.NewSPAR(predict.SPARConfig{
		Period: env.slotsPerDay, NPeriods: 7, MRecent: 30, MaxRows: 4000,
	})
	if err := spar.Fit(env.load.Slice(0, env.start)); err != nil {
		return nil, err
	}
	oracle := predict.NewOracle(env.load)
	if err := oracle.Fit(nil); err != nil {
		return nil, err
	}

	// Trim the end so the oracle can always see a full horizon.
	horizon := env.horizonSlots()
	loadView := env.load.Slice(0, env.load.Len()-horizon-1)
	n0 := env.params.RequiredMachines(loadView.At(env.start))

	res := &SimStudyResult{}
	for _, f := range cfg.QFactors {
		p := env.params
		p.Q *= f
		if p.QHat < p.Q {
			p.QHat = p.Q
		}
		peakMachines := p.RequiredMachines(loadView.Max())
		// Typical-day machines for the Simple and Static strategies.
		dayPeak := typicalDayPeak(env.load.Slice(0, env.start), env.slotsPerDay)
		strategies := []policy.Policy{
			&policy.PStore{Params: p, Predictor: spar, Horizon: horizon, Inflate: 1.15, Label: "P-Store SPAR"},
			&policy.PStore{Params: p, Predictor: oracle, Horizon: horizon, Inflate: 1.0, Label: "P-Store Oracle"},
			&policy.Reactive{Params: p},
			policy.Simple{
				SlotsPerDay: env.slotsPerDay, MorningSlot: env.slotsPerDay / 4,
				NightSlot:   env.slotsPerDay * 23 / 24,
				DayMachines: p.RequiredMachines(dayPeak), NightMachines: p.RequiredMachines(dayPeak / 6),
			},
			policy.Static{Machines: peakMachines},
		}
		for _, strat := range strategies {
			r, err := sim.Run(loadView, env.start, n0, strat, p, false)
			if err != nil {
				return nil, fmt.Errorf("experiments: simulating %s at f=%.2f: %w", strat.Name(), f, err)
			}
			res.Points = append(res.Points, SimPoint{
				Strategy:         strat.Name(),
				QFactor:          f,
				Cost:             r.Cost,
				InsufficientFrac: r.InsufficientFrac(),
				AvgMachines:      r.AvgMachines(),
				Moves:            r.Moves,
			})
			res.Slots = r.Slots
		}
	}
	// Normalize to P-Store SPAR at factor 1.0.
	var base float64
	for _, p := range res.Points {
		if p.Strategy == "P-Store SPAR" && p.QFactor == 1.0 {
			base = p.Cost
		}
	}
	if base == 0 && len(res.Points) > 0 {
		base = res.Points[0].Cost
	}
	for i := range res.Points {
		res.Points[i].NormalizedCost = res.Points[i].Cost / base
	}
	return res, nil
}

// typicalDayPeak returns the median of the per-day maxima over the
// training window, the basis of the Simple strategy's fixed schedule.
func typicalDayPeak(train *timeseries.Series, slotsPerDay int) float64 {
	days := train.Len() / slotsPerDay
	if days == 0 {
		return train.Max()
	}
	maxima := make([]float64, 0, days)
	for d := 0; d < days; d++ {
		maxima = append(maxima, train.Slice(d*slotsPerDay, (d+1)*slotsPerDay).Max())
	}
	// Median by partial sort.
	for i := 0; i < len(maxima); i++ {
		for j := i + 1; j < len(maxima); j++ {
			if maxima[j] < maxima[i] {
				maxima[i], maxima[j] = maxima[j], maxima[i]
			}
		}
	}
	return maxima[len(maxima)/2]
}

// TrajectoryStudy reproduces Fig 13: the effective-capacity trajectories of
// P-Store (SPAR), Simple and Static over a window of the simulation —
// including the Black Friday surge when the window covers it. It returns
// per-slot states for each strategy, aligned with the returned load view.
func TrajectoryStudy(cfg SimStudyConfig, windowStart, windowLen int) (map[string][]sim.SlotState, *timeseries.Series, error) {
	env, err := newSimEnvironment(cfg)
	if err != nil {
		return nil, nil, err
	}
	spar := predict.NewSPAR(predict.SPARConfig{
		Period: env.slotsPerDay, NPeriods: 7, MRecent: 30, MaxRows: 4000,
	})
	if err := spar.Fit(env.load.Slice(0, env.start)); err != nil {
		return nil, nil, err
	}
	horizon := env.horizonSlots()
	loadView := env.load.Slice(0, env.load.Len()-horizon-1)
	p := env.params
	n0 := p.RequiredMachines(loadView.At(env.start))
	dayPeak := typicalDayPeak(env.load.Slice(0, env.start), env.slotsPerDay)
	peakMachines := p.RequiredMachines(loadView.Max())

	strategies := []policy.Policy{
		&policy.PStore{Params: p, Predictor: spar, Horizon: horizon, Inflate: 1.15, Label: "P-Store SPAR"},
		policy.Simple{
			SlotsPerDay: env.slotsPerDay, MorningSlot: env.slotsPerDay / 4,
			NightSlot:   env.slotsPerDay * 23 / 24,
			DayMachines: p.RequiredMachines(dayPeak), NightMachines: p.RequiredMachines(dayPeak / 6),
		},
		policy.Static{Machines: peakMachines},
	}
	out := make(map[string][]sim.SlotState)
	for _, strat := range strategies {
		r, err := sim.Run(loadView, env.start, n0, strat, p, true)
		if err != nil {
			return nil, nil, err
		}
		lo := windowStart - env.start
		hi := lo + windowLen
		if lo < 0 || hi > len(r.States) {
			return nil, nil, fmt.Errorf("experiments: window [%d,%d) outside simulated range", windowStart, windowStart+windowLen)
		}
		out[strat.Name()] = r.States[lo:hi]
	}
	return out, loadView.Slice(windowStart, windowStart+windowLen), nil
}

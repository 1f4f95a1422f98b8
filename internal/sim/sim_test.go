package sim

import (
	"math"
	"testing"
	"time"

	"pstore/internal/plan"
	"pstore/internal/policy"
	"pstore/internal/predict"
	"pstore/internal/timeseries"
	"pstore/internal/workload"
)

func simParams() plan.Params {
	return plan.Params{Q: 100, QHat: 130, D: 10, PartitionsPerNode: 1}
}

// dayTrace builds days of a simple diurnal load: low 60 at night, high
// `peak` between slots [dayStart, dayEnd) of each day.
func dayTrace(days, slotsPerDay, dayStart, dayEnd int, peak float64) *timeseries.Series {
	vals := make([]float64, days*slotsPerDay)
	for i := range vals {
		s := i % slotsPerDay
		if s >= dayStart && s < dayEnd {
			vals[i] = peak
		} else {
			vals[i] = 60
		}
	}
	return timeseries.New(time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC), 5*time.Minute, vals)
}

func TestStaticStrategy(t *testing.T) {
	load := dayTrace(3, 96, 30, 70, 350)
	p := simParams()
	// 4 machines cover the 350 peak; cost = 4 per slot.
	res, err := Run(load, 0, 4, policy.Static{Machines: 4}, p, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.InsufficientSlots != 0 {
		t.Errorf("insufficient = %d, want 0", res.InsufficientSlots)
	}
	if want := 4.0 * float64(load.Len()); res.Cost != want {
		t.Errorf("cost = %v, want %v", res.Cost, want)
	}
	// 1 machine is always insufficient during the day.
	res1, err := Run(load, 0, 1, policy.Static{Machines: 1}, p, false)
	if err != nil {
		t.Fatal(err)
	}
	if res1.InsufficientFrac() < 0.3 {
		t.Errorf("static-1 insufficient frac = %v, want ≥ 0.3", res1.InsufficientFrac())
	}
	if res1.Cost >= res.Cost {
		t.Error("static-1 must cost less than static-4")
	}
}

func TestSimpleStrategyFollowsSchedule(t *testing.T) {
	load := dayTrace(3, 96, 30, 70, 350)
	p := simParams()
	strat := policy.Simple{SlotsPerDay: 96, MorningSlot: 20, NightSlot: 72, DayMachines: 4, NightMachines: 1}
	res, err := Run(load, 0, 1, strat, p, true)
	if err != nil {
		t.Fatal(err)
	}
	// Scheduled in advance of the daily rise: no insufficiency once warm.
	if res.InsufficientFrac() > 0.02 {
		t.Errorf("simple insufficient frac = %v", res.InsufficientFrac())
	}
	// Costs less than always-4.
	if res.AvgMachines() >= 4 {
		t.Errorf("avg machines = %v, want < 4", res.AvgMachines())
	}
	if res.Moves < 5 {
		t.Errorf("moves = %d, want ≥ 5 (two per day)", res.Moves)
	}
}

func TestReactiveStrategyLagsLoad(t *testing.T) {
	load := dayTrace(3, 96, 30, 70, 350)
	p := simParams()
	res, err := Run(load, 0, 1, &policy.Reactive{Params: p}, p, false)
	if err != nil {
		t.Fatal(err)
	}
	// Reacting after overload guarantees some slots with insufficient
	// capacity around each morning ramp.
	if res.InsufficientSlots == 0 {
		t.Error("reactive should suffer at ramp starts")
	}
	// But it should still save machines vs static-4.
	if res.AvgMachines() >= 4 {
		t.Errorf("avg machines = %v", res.AvgMachines())
	}
}

func TestPStoreOracleBeatsReactive(t *testing.T) {
	load := dayTrace(4, 96, 30, 70, 350)
	p := simParams()

	oracle := predict.NewOracle(load)
	if err := oracle.Fit(nil); err != nil {
		t.Fatal(err)
	}
	ps := &policy.PStore{Params: p, Predictor: oracle, Horizon: 12, Inflate: 1.0, Label: "P-Store Oracle"}
	resP, err := Run(load.Slice(0, load.Len()-13), 0, 1, ps, p, false)
	if err != nil {
		t.Fatal(err)
	}
	resR, err := Run(load.Slice(0, load.Len()-13), 0, 1, &policy.Reactive{Params: p}, p, false)
	if err != nil {
		t.Fatal(err)
	}
	if resP.InsufficientSlots >= resR.InsufficientSlots {
		t.Errorf("P-Store insufficient %d not better than reactive %d",
			resP.InsufficientSlots, resR.InsufficientSlots)
	}
	// P-Store provisions ahead, so it scales before each ramp.
	if resP.Moves == 0 {
		t.Error("P-Store never moved")
	}
}

func TestPStoreSPAREndToEnd(t *testing.T) {
	// Synthetic B2W-like weeks at 5-minute granularity; train SPAR on the
	// first 3 weeks, simulate the last week.
	cfg := workload.DefaultB2WConfig()
	cfg.Days = 28
	cfg.SlotsPerDay = 288 // 5-minute slots
	cfg.TroughLoad = 60
	cfg.PeakLoad = 600
	load := workload.GenerateB2W(cfg)

	p := plan.Params{Q: 100, QHat: 130, D: 16, PartitionsPerNode: 1}
	spar := predict.NewSPAR(predict.SPARConfig{Period: 288, NPeriods: 3, MRecent: 12, MaxRows: 4000})
	trainEnd := 21 * 288
	if err := spar.Fit(load.Slice(0, trainEnd)); err != nil {
		t.Fatal(err)
	}
	ps := &policy.PStore{Params: p, Predictor: spar, Horizon: 36, Inflate: 1.15, Label: "P-Store SPAR"}
	res, err := Run(load.Slice(0, load.Len()-37), trainEnd, 2, ps, p, false)
	if err != nil {
		t.Fatal(err)
	}
	static := plan.Params.RequiredMachines(p, load.Max())
	resStatic, err := Run(load.Slice(0, load.Len()-37), trainEnd, static, policy.Static{Machines: static}, p, false)
	if err != nil {
		t.Fatal(err)
	}
	// The headline result: P-Store approaches static-peak reliability at a
	// fraction of the machines.
	if res.AvgMachines() > 0.75*resStatic.AvgMachines() {
		t.Errorf("P-Store avg machines %.2f vs static %.2f: expected ≥ 25%% savings",
			res.AvgMachines(), resStatic.AvgMachines())
	}
	if res.InsufficientFrac() > 0.05 {
		t.Errorf("P-Store insufficient frac = %.4f, want < 5%%", res.InsufficientFrac())
	}
	if res.Moves < 8 {
		t.Errorf("moves = %d, want regular daily scaling", res.Moves)
	}
}

func TestRunValidation(t *testing.T) {
	load := dayTrace(1, 96, 30, 70, 350)
	p := simParams()
	if _, err := Run(load, -1, 1, policy.Static{Machines: 1}, p, false); err == nil {
		t.Error("negative start should fail")
	}
	if _, err := Run(load, load.Len(), 1, policy.Static{Machines: 1}, p, false); err == nil {
		t.Error("out-of-range start should fail")
	}
	if _, err := Run(load, 0, 0, policy.Static{Machines: 1}, p, false); err == nil {
		t.Error("n0=0 should fail")
	}
	if _, err := Run(load, 0, 1, policy.Static{Machines: 1}, plan.Params{}, false); err == nil {
		t.Error("bad params should fail")
	}
}

func TestResultAccessors(t *testing.T) {
	r := &Result{Slots: 200, Cost: 500, InsufficientSlots: 10}
	if math.Abs(r.InsufficientFrac()-0.05) > 1e-12 {
		t.Errorf("frac = %v", r.InsufficientFrac())
	}
	if math.Abs(r.AvgMachines()-2.5) > 1e-12 {
		t.Errorf("avg = %v", r.AvgMachines())
	}
	empty := &Result{}
	if empty.InsufficientFrac() != 0 || empty.AvgMachines() != 0 {
		t.Error("empty result accessors should be 0")
	}
}

func TestKeepStatesTrajectory(t *testing.T) {
	load := dayTrace(1, 96, 30, 70, 350)
	p := simParams()
	res, err := Run(load, 0, 1, &policy.Reactive{Params: p}, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.States) != load.Len() {
		t.Fatalf("states = %d, want %d", len(res.States), load.Len())
	}
	sawMigration := false
	for i, st := range res.States {
		if st.Load != load.At(i) {
			t.Fatalf("state %d load mismatch", i)
		}
		if st.Migrating {
			sawMigration = true
		}
		if st.EffCap <= 0 || st.Machines < 1 {
			t.Fatalf("state %d = %+v", i, st)
		}
	}
	if !sawMigration {
		t.Error("never observed a migrating slot")
	}
}

func TestPStoreStrategyFallbackOnUnpredictedSpike(t *testing.T) {
	// Oracle trained on a flat trace, but the simulated load spikes 5×:
	// plans become infeasible and the strategy must jump straight to the
	// required size.
	flat := dayTrace(2, 96, 999, 999, 0) // constant 60
	spiked := flat.Clone()
	for i := 100; i < 120; i++ {
		spiked.Values[i] = 450 // needs 5 machines at Q=100
	}
	p := simParams()
	oracle := predict.NewOracle(flat) // blind to the spike
	if err := oracle.Fit(nil); err != nil {
		t.Fatal(err)
	}
	ps := &policy.PStore{Params: p, Predictor: oracle, Horizon: 12, Label: "P-Store"}
	res, err := Run(spiked.Slice(0, spiked.Len()-13), 0, 1, ps, p, true)
	if err != nil {
		t.Fatal(err)
	}
	maxMachines := 0
	for _, st := range res.States {
		if st.Machines > maxMachines {
			maxMachines = st.Machines
		}
	}
	if maxMachines < 5 {
		t.Errorf("fallback never scaled to 5, max = %d", maxMachines)
	}
	// Some insufficiency is unavoidable (the spike was unpredicted), but it
	// must end once capacity catches up.
	if res.InsufficientSlots == 0 {
		t.Error("an unpredicted spike should cause some insufficiency")
	}
	if res.InsufficientSlots > 15 {
		t.Errorf("insufficient for %d slots; fallback too slow", res.InsufficientSlots)
	}
}

func TestSimpleStrategyNightWraparound(t *testing.T) {
	// Slots outside [morning, night) use NightMachines, including the
	// early-morning hours of the next day.
	s := policy.Simple{SlotsPerDay: 96, MorningSlot: 24, NightSlot: 72, DayMachines: 5, NightMachines: 2}
	res, err := Run(dayTrace(2, 96, 0, 0, 0), 0, 5, s, simParams(), true)
	if err != nil {
		t.Fatal(err)
	}
	for slot, want := range map[int]int{20: 2, 60: 5, 90: 2, 96 + 20: 2, 96 + 60: 5, 96 + 90: 2} {
		if st := res.States[slot]; st.Migrating || st.Machines != want {
			t.Errorf("slot %d: %+v, want %d machines at rest", slot, st, want)
		}
	}
	// Midnight, morning, night, next morning, next night.
	if res.Moves != 5 {
		t.Errorf("moves = %d, want 5", res.Moves)
	}
}

func TestReactiveStrategyDefaults(t *testing.T) {
	// Zero HighFraction and ScaleInStreak. Load 60 on 2 machines: required
	// 1 < 2, so the low streak builds; the default streak is 3, so the
	// third slot decides and the move starts at the fourth.
	p := simParams()
	res, err := Run(dayTrace(1, 96, 0, 0, 0), 0, 2, &policy.Reactive{Params: p}, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.States[2].Migrating || !res.States[3].Migrating {
		t.Errorf("move started at the wrong slot: %+v", res.States[:4])
	}
	if last := res.States[len(res.States)-1]; res.Moves != 1 || last.Machines != 1 {
		t.Errorf("moves = %d, final = %+v, want one scale-in to 1", res.Moves, last)
	}
}

func TestReactiveStrategyScaleOutStreakAndCap(t *testing.T) {
	// Load jumps from 60 to 450 (5 machines at Q=100) at slot 10. With a
	// scale-out streak of 2 the move starts one slot later than with the
	// default streak of 1, and MaxNodes caps the target at 3.
	load := dayTrace(1, 96, 10, 96, 450)
	p := simParams()
	firstMove := func(r *policy.Reactive) (int, int) {
		res, err := Run(load, 0, 1, r, p, true)
		if err != nil {
			t.Fatal(err)
		}
		start, peak := -1, 0
		for i, st := range res.States {
			if st.Migrating && start < 0 {
				start = i
			}
			peak = max(peak, st.Machines)
		}
		return start, peak
	}
	if start, peak := firstMove(&policy.Reactive{Params: p}); start != 11 || peak != 5 {
		t.Errorf("streak 1: move starts at %d (want 11), peak %d machines (want 5)", start, peak)
	}
	if start, peak := firstMove(&policy.Reactive{Params: p, ScaleOutStreak: 2, MaxNodes: 3}); start != 12 || peak != 3 {
		t.Errorf("streak 2, cap 3: move starts at %d (want 12), peak %d machines (want 3)", start, peak)
	}
}

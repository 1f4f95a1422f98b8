package policy

import (
	"errors"
	"testing"
	"time"

	"pstore/internal/plan"
	"pstore/internal/predict"
	"pstore/internal/timeseries"
)

// params: Q = 100, Q̂ = 120 per node; a move takes at most D = 2 slots.
var params = plan.Params{Q: 100, QHat: 120, D: 2, PartitionsPerNode: 1}

func series(vals []float64) *timeseries.Series {
	return timeseries.New(time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC), time.Minute, vals)
}

// step is one slot: the load observed, the machines allocated, and the
// decision expected.
type step struct {
	load    float64
	current int
	kind    string
	target  int
}

// run feeds steps to p one slot at a time, the observed loads appended to
// prefix, and checks every decision.
func run(t *testing.T, p Policy, prefix []float64, steps []step) {
	t.Helper()
	hist := series(append([]float64(nil), prefix...))
	for i, s := range steps {
		hist.Append(s.load)
		d, err := p.Decide(hist, s.current)
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if d.Kind != s.kind || d.Target != s.target {
			t.Fatalf("slot %d (load %v on %d): got %s→%d (%q), want %s→%d",
				i, s.load, s.current, d.Kind, d.Target, d.Note, s.kind, s.target)
		}
	}
}

func TestReactive(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy *Reactive
		steps  []step
	}{
		{"overload threshold is 0.95·Q̂·N by default", &Reactive{}, []step{
			{114, 1, Hold, 1}, {115, 1, ScaleOut, 2},
		}},
		{"scale out at least one machine", &Reactive{HighFraction: 0.5}, []step{
			{70, 1, ScaleOut, 2},
		}},
		{"scale-out streak delays detection", &Reactive{ScaleOutStreak: 2}, []step{
			{300, 1, Hold, 1}, {300, 1, ScaleOut, 3},
		}},
		{"normal load resets the scale-out streak", &Reactive{ScaleOutStreak: 2}, []step{
			{300, 1, Hold, 1}, {100, 1, Hold, 1}, {300, 1, Hold, 1}, {300, 1, ScaleOut, 3},
		}},
		{"MaxNodes caps scale-out", &Reactive{MaxNodes: 4}, []step{
			{2000, 1, ScaleOut, 4}, {2000, 4, Hold, 4},
		}},
		{"scale in after a streak of 3 by default", &Reactive{}, []step{
			{150, 5, Hold, 5}, {150, 5, Hold, 5}, {150, 5, ScaleIn, 2},
		}},
		{"normal load resets the scale-in streak", &Reactive{}, []step{
			{100, 2, Hold, 2}, {100, 2, Hold, 2}, {180, 2, Hold, 2},
			{100, 2, Hold, 2}, {100, 2, Hold, 2}, {100, 2, ScaleIn, 1},
		}},
		{"overload resets the scale-in streak", &Reactive{}, []step{
			{100, 2, Hold, 2}, {100, 2, Hold, 2}, {230, 2, ScaleOut, 3},
			{100, 3, Hold, 3}, {100, 3, Hold, 3}, {100, 3, ScaleIn, 1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.policy.Params = params
			run(t, tc.policy, nil, tc.steps)
		})
	}
}

func TestStaticAndSimple(t *testing.T) {
	run(t, Static{Machines: 3}, nil, []step{{0, 1, ScaleOut, 3}, {0, 3, Hold, 3}, {0, 5, ScaleIn, 3}})
	// Slot of day is history.Len()-1: day is [2, 4) of a 5-slot day.
	s := Simple{SlotsPerDay: 5, MorningSlot: 2, NightSlot: 4, DayMachines: 4, NightMachines: 1}
	run(t, s, nil, []step{
		{0, 4, ScaleIn, 1}, {0, 1, Hold, 1}, {0, 1, ScaleOut, 4}, {0, 4, Hold, 4},
		{0, 4, ScaleIn, 1}, {0, 1, Hold, 1}, {0, 1, Hold, 1}, {0, 1, ScaleOut, 4},
	})
}

// pstore returns a P-Store policy whose oracle knows future, the load each
// slot will really see; observed loads may still differ (an unpredicted
// spike).
func pstore(t *testing.T, future []float64) *PStore {
	t.Helper()
	oracle := predict.NewOracle(series(future))
	if err := oracle.Fit(nil); err != nil {
		t.Fatal(err)
	}
	return &PStore{Params: params, Predictor: oracle, Horizon: 6}
}

func flat(n int, v float64) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = v
	}
	return vals
}

func TestPStore(t *testing.T) {
	spike := flat(40, 80)
	for i := 14; i < 20; i++ {
		spike[i] = 180 // needs 2 machines
	}
	for _, tc := range []struct {
		name   string
		future []float64
		setup  func(*PStore)
		steps  []step
	}{
		{"scale-in needs three confirmations", flat(40, 80), nil, []step{
			{80, 2, Hold, 2}, {80, 2, Hold, 2}, {80, 2, ScaleIn, 1}, {80, 1, Hold, 1},
		}},
		{"Confirmations sets the vote count", flat(40, 80), func(s *PStore) { s.Confirmations = 1 }, []step{
			{80, 2, ScaleIn, 1},
		}},
		{"a hold resets the votes", flat(40, 80), nil, []step{
			{80, 2, Hold, 2}, {80, 2, Hold, 2}, {80, 1, Hold, 1},
			{80, 2, Hold, 2}, {80, 2, Hold, 2}, {80, 2, ScaleIn, 1},
		}},
		{"an infeasible slot resets the votes", flat(40, 80), func(s *PStore) { s.MaxNodes = 2 }, []step{
			{80, 2, Hold, 2}, {80, 2, Hold, 2}, {450, 2, Infeasible, 2},
			{80, 2, Hold, 2}, {80, 2, Hold, 2}, {80, 2, ScaleIn, 1},
		}},
		{"scale-out waits until it is due", spike, nil, []step{
			{80, 1, Hold, 1}, {80, 1, Hold, 1}, {80, 1, Hold, 1}, {80, 1, ScaleOut, 2},
		}},
		{"fallback scales to the required size", flat(40, 80), nil, []step{
			{450, 1, Fallback, 5},
		}},
		{"MaxNodes caps the fallback", flat(40, 80), func(s *PStore) { s.MaxNodes = 3 }, []step{
			{450, 1, Fallback, 3}, {450, 3, Infeasible, 3},
		}},
		{"Inflate adds headroom", flat(40, 90), func(s *PStore) { s.Inflate = 1.2 }, []step{
			{90, 1, ScaleOut, 2},
		}},
		{"the manual floor holds machines up", flat(40, 80), func(s *PStore) { s.SetFloor(2) }, []step{
			{80, 1, ScaleOut, 2}, {80, 2, Hold, 2}, {80, 2, Hold, 2}, {80, 2, Hold, 2},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Ten slots of history; the oracle's slot i is history index i.
			s := pstore(t, tc.future)
			if tc.setup != nil {
				tc.setup(s)
			}
			run(t, s, tc.future[:10], tc.steps)
		})
	}
}

func TestPStoreFallbackRate(t *testing.T) {
	s := pstore(t, flat(40, 80))
	hist := series(append(flat(10, 80), 450))
	if d, _ := s.Decide(hist, 1); d.Fast || d.Note != "rate R" {
		t.Errorf("regular fallback = %+v", d)
	}
	s.FastFallback = true
	if d, _ := s.Decide(hist, 1); !d.Fast || d.Note != "rate R×8" {
		t.Errorf("fast fallback = %+v", d)
	}
}

type failing struct{ predict.Model }

func (failing) MinHistory() int { return 1 }
func (failing) Forecast(*timeseries.Series, int) ([]float64, error) {
	return nil, errors.New("no model")
}

func TestPStoreWarmUpAndErrors(t *testing.T) {
	s := pstore(t, flat(40, 80))
	s.Predictor = predict.NewSeasonalNaive(20)
	if d, err := s.Decide(series(flat(5, 80)), 2); err != nil || d.Kind != Hold || d.Target != 2 {
		t.Errorf("short history: %+v, %v; want a hold", d, err)
	}
	s.Predictor = failing{}
	if _, err := s.Decide(series(flat(5, 80)), 2); err == nil {
		t.Error("forecast error should surface")
	}
	s.SetFloor(-3)
	if s.Floor() != 0 {
		t.Errorf("negative floor = %d, want 0", s.Floor())
	}
	if (&PStore{}).Name() != "P-Store" || (&PStore{Label: "x"}).Name() != "x" {
		t.Error("names")
	}
}

func TestPStoreSetFloorWhileDeciding(t *testing.T) {
	// The controller's SetManualFloor runs on the operator's goroutine
	// while the control loop decides; -race checks the floor's hand-off.
	s := pstore(t, flat(40, 80))
	hist := series(flat(11, 80))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s.SetFloor(i % 3)
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := s.Decide(hist, 2); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

package experiments

import (
	"testing"
	"time"
)

// testScale shrinks QuickScale further so the package tests stay fast.
func testScale() Scale {
	sc := QuickScale()
	sc.SlotsPerDay = 48
	sc.SlotWall = 30 * time.Millisecond
	sc.StockItems = 400
	sc.PreloadCarts = 400
	sc.NBuckets = 128
	return sc
}

func TestSkewAnalysisMatchesPaperShape(t *testing.T) {
	res := SkewAnalysis(30, 120000, 120000)
	// §8.1: the most-accessed partition is ~10% above average with σ a few
	// percent; data skew is even lower. Generous bounds for a synthetic
	// driver.
	if res.AccessMaxOverAvg > 0.25 {
		t.Errorf("access max-over-avg = %.4f, want ≤ 0.25", res.AccessMaxOverAvg)
	}
	if res.AccessStdOverAvg > 0.10 {
		t.Errorf("access std-over-avg = %.4f, want ≤ 0.10", res.AccessStdOverAvg)
	}
	if res.DataMaxOverAvg > 0.15 {
		t.Errorf("data max-over-avg = %.4f, want ≤ 0.15", res.DataMaxOverAvg)
	}
	if res.DataStdOverAvg > 0.05 {
		t.Errorf("data std-over-avg = %.4f, want ≤ 0.05", res.DataStdOverAvg)
	}
}

func TestDiscoverSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("engine experiment")
	}
	sc := testScale()
	res, err := DiscoverSaturation(sc, 150*time.Millisecond, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Saturation <= 0 {
		t.Fatalf("saturation = %v", res.Saturation)
	}
	// The ramp should discover a saturation in the vicinity of the
	// theoretical 1/ServiceTime per partition.
	theory := sc.NodeSaturation()
	if res.Saturation < 0.3*theory || res.Saturation > 1.5*theory {
		t.Errorf("saturation %.0f tps far from theoretical %.0f", res.Saturation, theory)
	}
	if res.Q >= res.QHat {
		t.Errorf("Q %.0f should be below QHat %.0f", res.Q, res.QHat)
	}
	// Throughput must be increasing at low offered rates.
	if res.Points[1].Throughput <= 0.5*res.Points[0].Throughput {
		t.Errorf("throughput collapsed early: %+v", res.Points[:2])
	}
}

func TestChunkSizeStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("engine experiment")
	}
	sc := testScale()
	// Run at ~55% of theoretical saturation: high enough for migration to
	// interfere, low enough that queues stay stable and timing is
	// dominated by pacing rather than queue noise.
	load := 0.55 * sc.NodeSaturation()
	res, err := ChunkSizeStudy(sc, load, []int{1, 32}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("runs = %d, want 3 (static + 2 chunk sizes)", len(res.Runs))
	}
	small, large := res.Runs[1], res.Runs[2]
	if small.MigrationTime <= large.MigrationTime {
		t.Errorf("small chunks (%v) should migrate slower than large (%v)",
			small.MigrationTime, large.MigrationTime)
	}
	if small.RowsMoved == 0 || large.RowsMoved == 0 {
		t.Error("no rows moved")
	}
	if res.DSlots < 0 {
		t.Errorf("DSlots = %v", res.DSlots)
	}
}

func TestQuickParamsSane(t *testing.T) {
	sc := QuickScale()
	p := QuickParams(sc)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Q per slot should correspond to 65% of ~0.95·node saturation.
	perSlot := 0.65 * 0.95 * sc.NodeSaturation() * sc.SlotWall.Seconds()
	if p.Q < perSlot*0.99 || p.Q > perSlot*1.01 {
		t.Errorf("Q = %v, want ≈ %v", p.Q, perSlot)
	}
}

func TestBuildApproachesConfigAndPStoreRun(t *testing.T) {
	if testing.Short() {
		t.Skip("engine experiment")
	}
	sc := testScale()
	setup := &Setup{Scale: sc, Params: QuickParams(sc)}
	cfg, err := BuildApproachesConfig(setup, 4, 1, PredictorOracle, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PeakNodes <= cfg.SmallNodes {
		t.Errorf("peak %d vs small %d", cfg.PeakNodes, cfg.SmallNodes)
	}
	res, err := RunApproach(*cfg, ApproachPStore)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests replayed")
	}
	if len(res.Windows) == 0 || len(res.Machines) == 0 {
		t.Fatalf("windows=%d machines=%d", len(res.Windows), len(res.Machines))
	}
	if res.AvgMachines <= 0 || res.AvgMachines > float64(cfg.PeakNodes) {
		t.Errorf("avg machines = %v", res.AvgMachines)
	}
	// P-Store should have scaled at least once over a full diurnal day.
	if len(res.Machines) < 2 {
		t.Errorf("machine curve = %+v, expected scaling activity", res.Machines)
	}
}

func TestRunApproachReactiveThroughController(t *testing.T) {
	if testing.Short() {
		t.Skip("engine experiment")
	}
	sc := testScale()
	setup := &Setup{Scale: sc, Params: QuickParams(sc)}
	cfg, err := BuildApproachesConfig(setup, 4, 1, PredictorOracle, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunApproach(*cfg, ApproachReactive)
	if err != nil {
		t.Fatal(err)
	}
	// The controller logs one event per decided slot, reactive runs too.
	if len(res.Events) == 0 {
		t.Fatal("no controller events for the reactive run")
	}
	for _, ev := range res.Events {
		if ev.To > cfg.PeakNodes {
			t.Errorf("event %+v exceeds MaxNodes %d", ev, cfg.PeakNodes)
		}
	}
}

func TestRunApproachStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("engine experiment")
	}
	sc := testScale()
	setup := &Setup{Scale: sc, Params: QuickParams(sc)}
	cfg, err := BuildApproachesConfig(setup, 4, 1, PredictorOracle, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunApproach(*cfg, ApproachStaticPeak)
	if err != nil {
		t.Fatal(err)
	}
	// Static allocation never changes machines.
	if len(res.Machines) != 1 || res.Machines[0].Machines != cfg.PeakNodes {
		t.Errorf("machines = %+v", res.Machines)
	}
	if res.SLA.Windows == 0 {
		t.Error("no SLA windows")
	}
}

func TestRunApproachUnknown(t *testing.T) {
	sc := testScale()
	setup := &Setup{Scale: sc, Params: QuickParams(sc)}
	cfg, err := BuildApproachesConfig(setup, 4, 1, PredictorOracle, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunApproach(*cfg, Approach("nope")); err == nil {
		t.Error("unknown approach should fail")
	}
}

func TestSPARStudyB2W(t *testing.T) {
	if testing.Short() {
		t.Skip("regression-heavy")
	}
	res, err := SPARStudyB2W(9, 1, []int{10, 60}, 45)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %+v", res.Points)
	}
	// Accuracy decays gracefully with τ and stays in a plausible band.
	if res.Points[0].MRE > res.Points[1].MRE+0.02 {
		t.Errorf("MRE(10) = %.4f should be ≤ MRE(60) = %.4f", res.Points[0].MRE, res.Points[1].MRE)
	}
	for _, p := range res.Points {
		if p.MRE <= 0 || p.MRE > 0.30 {
			t.Errorf("τ=%d MRE = %.4f outside (0, 0.30]", p.Tau, p.MRE)
		}
	}
	if len(res.CurvePred) == 0 || len(res.CurvePred) != len(res.CurveActual) {
		t.Error("forecast curve missing")
	}
}

func TestSPARStudyWikipedia(t *testing.T) {
	if testing.Short() {
		t.Skip("regression-heavy")
	}
	en, err := SPARStudyWikipedia(true, 28, 7, []int{1, 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	de, err := SPARStudyWikipedia(false, 28, 7, []int{1, 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 6: the German edition is harder to predict than the English one.
	if de.Points[1].MRE <= en.Points[1].MRE {
		t.Errorf("DE MRE %.4f should exceed EN MRE %.4f at τ=6h",
			de.Points[1].MRE, en.Points[1].MRE)
	}
	// Both stay within the paper's ballpark (<15% at 6h).
	for _, p := range append(en.Points, de.Points...) {
		if p.MRE > 0.20 {
			t.Errorf("%d-hour MRE = %.4f too high", p.Tau, p.MRE)
		}
	}
}

func TestCapacityCostStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := SimStudyConfig{Days: 13, TrainDays: 9, BlackFridayDay: 11, QFactors: []float64{1.0}, Seed: 5}
	res, err := CapacityCostStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d, want 5 strategies", len(res.Points))
	}
	byName := map[string]SimPoint{}
	for _, p := range res.Points {
		byName[p.Strategy] = p
	}
	ps := byName["P-Store SPAR"]
	reactive := byName["Reactive"]
	if ps.NormalizedCost != 1.0 {
		t.Errorf("P-Store SPAR normalized cost = %v, want 1.0", ps.NormalizedCost)
	}
	// P-Store suffers less insufficiency than reactive at comparable cost.
	if ps.InsufficientFrac > reactive.InsufficientFrac {
		t.Errorf("P-Store insufficient %.4f vs reactive %.4f", ps.InsufficientFrac, reactive.InsufficientFrac)
	}
	// Static-peak costs much more than P-Store.
	for name, p := range byName {
		if len(name) > 6 && name[:6] == "Static" {
			if p.Cost < 1.5*ps.Cost {
				t.Errorf("static cost %.0f not ≫ P-Store %.0f", p.Cost, ps.Cost)
			}
		}
	}
}

func TestTrajectoryStudyBlackFriday(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := SimStudyConfig{Days: 13, TrainDays: 9, BlackFridayDay: 11, QFactors: []float64{1.0}, Seed: 5}
	windowStart := 10 * 288
	states, load, err := TrajectoryStudy(cfg, windowStart, 2*288)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 3 {
		t.Fatalf("strategies = %d", len(states))
	}
	if load.Len() != 2*288 {
		t.Fatalf("load window = %d", load.Len())
	}
	// On Black Friday (inside the window) the Simple strategy must be
	// underprovisioned more than P-Store.
	insufficient := func(name string) int {
		n := 0
		for i, st := range states[name] {
			if load.At(i) > st.EffCap {
				n++
			}
		}
		return n
	}
	if insufficient("P-Store SPAR") > insufficient("Simple") {
		t.Errorf("P-Store insufficient %d > Simple %d on Black Friday window",
			insufficient("P-Store SPAR"), insufficient("Simple"))
	}
}

func TestModelComparisonSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("regression-heavy")
	}
	points, err := ModelComparison(9, 1, 60, 60)
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string]float64{}
	for _, p := range points {
		byModel[p.Model] = p.MRE
	}
	// §5: SPAR should be the most accurate of the learned models.
	if byModel["SPAR"] > byModel["AR"] {
		t.Errorf("SPAR MRE %.4f worse than AR %.4f", byModel["SPAR"], byModel["AR"])
	}
	for m, mre := range byModel {
		if mre <= 0 || mre > 1 {
			t.Errorf("%s MRE = %v out of range", m, mre)
		}
	}
}

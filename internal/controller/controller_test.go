package controller

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/engine"
	"pstore/internal/migration"
	"pstore/internal/plan"
	"pstore/internal/policy"
	"pstore/internal/predict"
	"pstore/internal/timeseries"
)

func testRegistry() *engine.Registry {
	reg := engine.NewRegistry()
	reg.Register("Put", func(tx *engine.Txn) error {
		return tx.Put("T", tx.Key, map[string]string{"v": "1"})
	})
	return reg
}

func newTestCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		InitialNodes:      1,
		PartitionsPerNode: 1,
		NBuckets:          32,
		Tables:            []string{"T"},
		Registry:          testRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// buildScenario returns a full load series: flat 80 with a spike of 180
// over slots [spikeStart, spikeEnd).
func buildScenario(length, spikeStart, spikeEnd int) *timeseries.Series {
	vals := make([]float64, length)
	for i := range vals {
		vals[i] = 80
		if i >= spikeStart && i < spikeEnd {
			vals[i] = 180
		}
	}
	return timeseries.New(time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC), time.Minute, vals)
}

func testConfig(t *testing.T, full *timeseries.Series, seedLen int, measure func() float64) Config {
	t.Helper()
	oracle := predict.NewOracle(full)
	if err := oracle.Fit(nil); err != nil {
		t.Fatal(err)
	}
	return Config{
		Params:               plan.Params{Q: 100, QHat: 120, D: 2, PartitionsPerNode: 1},
		Predictor:            oracle,
		History:              full.Slice(0, seedLen),
		SlotWall:             10 * time.Millisecond,
		Horizon:              6,
		Inflate:              1,
		ScaleInConfirmations: 3,
		Migration:            migration.Options{BucketsPerChunk: 8, ChunkInterval: 100 * time.Microsecond},
		MeasureLoad:          measure,
	}
}

// stepUntilIdle advances the controller one slot and waits out any
// migration it may have started, so tests stay deterministic.
func stepUntilIdle(t *testing.T, ctl *Controller) {
	t.Helper()
	if err := ctl.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ctl.WaitIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestControllerScalesOutBeforeSpike(t *testing.T) {
	c := newTestCluster(t)
	full := buildScenario(60, 18, 24)
	next := 10
	measure := func() float64 {
		v := full.At(next)
		next++
		return v
	}
	ctl, err := New(c, testConfig(t, full, 10, measure))
	if err != nil {
		t.Fatal(err)
	}
	nodesAtSlot := make(map[int]int)
	for slot := 10; slot < 18; slot++ {
		stepUntilIdle(t, ctl)
		nodesAtSlot[slot] = c.NumNodes()
	}
	if c.NumNodes() != 2 {
		t.Fatalf("nodes = %d at spike time, want 2", c.NumNodes())
	}
	// The scale-out should NOT have happened immediately at slot 10: the
	// planner delays moves as late as possible.
	if nodesAtSlot[10] != 1 || nodesAtSlot[11] != 1 {
		t.Errorf("scaled out too early: %v", nodesAtSlot)
	}
	// Exactly one scale-out event.
	outs := 0
	for _, ev := range ctl.Events() {
		if ev.Kind == "scale-out" {
			outs++
		}
	}
	if outs != 1 {
		t.Errorf("scale-out events = %d, want 1", outs)
	}
}

func TestControllerScaleInNeedsConfirmations(t *testing.T) {
	c := newTestCluster(t)
	// Start with 2 nodes and a permanently low load.
	if _, err := migration.Run(c, 2, migration.Options{BucketsPerChunk: 8, ChunkInterval: 0}); err != nil {
		t.Fatal(err)
	}
	full := buildScenario(60, 999, 999) // flat 80 forever
	next := 10
	measure := func() float64 {
		v := full.At(next)
		next++
		return v
	}
	ctl, err := New(c, testConfig(t, full, 10, measure))
	if err != nil {
		t.Fatal(err)
	}
	stepUntilIdle(t, ctl)
	stepUntilIdle(t, ctl)
	if c.NumNodes() != 2 {
		t.Fatalf("scaled in after only 2 votes")
	}
	stepUntilIdle(t, ctl)
	if c.NumNodes() != 1 {
		t.Fatalf("nodes = %d after 3 confirmations, want 1", c.NumNodes())
	}
	// A hold event with vote notes must precede the scale-in.
	evs := ctl.Events()
	if len(evs) < 3 || evs[len(evs)-1].Kind != "scale-in" {
		t.Errorf("events = %+v", evs)
	}
}

func TestControllerForecastSpikeResetsScaleInVotes(t *testing.T) {
	c := newTestCluster(t)
	if _, err := migration.Run(c, 2, migration.Options{BucketsPerChunk: 8, ChunkInterval: 0}); err != nil {
		t.Fatal(err)
	}
	// Flat 80 except a spike of 210 (needs 3 nodes) over slots [20, 24).
	// With horizon 6 the spike enters the forecast window at slot 14 —
	// before the 5 scale-in confirmations accumulate — so the pending
	// scale-in must be abandoned in favour of the scale-out.
	vals := make([]float64, 60)
	for i := range vals {
		vals[i] = 80
		if i >= 20 && i < 24 {
			vals[i] = 210
		}
	}
	full := timeseries.New(time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC), time.Minute, vals)
	next := 10
	measure := func() float64 {
		v := full.At(next)
		next++
		return v
	}
	cfg := testConfig(t, full, 10, measure)
	cfg.ScaleInConfirmations = 5
	// D large enough that a scale-in followed by a scale-out does not fit
	// within the horizon, so dipping down before the spike is infeasible.
	cfg.Params.D = 6
	ctl, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	minNodes := 2
	for slot := 10; slot < 20; slot++ {
		stepUntilIdle(t, ctl)
		if n := c.NumNodes(); n < minNodes {
			minNodes = n
		}
	}
	if minNodes < 2 {
		t.Errorf("cluster dropped to %d nodes before the spike; votes were not reset", minNodes)
	}
	if c.NumNodes() != 3 {
		t.Fatalf("nodes = %d at spike time, want 3", c.NumNodes())
	}
	// After the spike passes, five clean confirmations scale the cluster in.
	for slot := 20; slot < 40; slot++ {
		stepUntilIdle(t, ctl)
	}
	if c.NumNodes() != 1 {
		t.Errorf("nodes = %d after the spike and confirmations, want 1", c.NumNodes())
	}
}

func TestControllerFallbackOnUnpredictedSpike(t *testing.T) {
	c := newTestCluster(t)
	full := buildScenario(60, 999, 999) // oracle predicts flat 80
	next := 10
	measure := func() float64 {
		next++
		if next == 11 {
			return 450 // unpredicted 5.6× spike, beyond cap(1)
		}
		return full.At(next - 1)
	}
	cfg := testConfig(t, full, 10, measure)
	cfg.FastFallback = true
	ctl, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepUntilIdle(t, ctl)
	if c.NumNodes() < 5 {
		t.Fatalf("nodes = %d after fallback for load 450 (Q=100), want ≥ 5", c.NumNodes())
	}
	evs := ctl.Events()
	if len(evs) != 1 || evs[0].Kind != "fallback" || evs[0].Note != "rate R×8" {
		t.Errorf("events = %+v", evs)
	}
}

func TestControllerValidation(t *testing.T) {
	c := newTestCluster(t)
	full := buildScenario(60, 999, 999)
	good := testConfig(t, full, 10, func() float64 { return 80 })

	bad := good
	bad.Predictor = nil
	if _, err := New(c, bad); err == nil {
		t.Error("nil predictor should fail")
	}
	bad = good
	bad.MeasureLoad = nil
	if _, err := New(c, bad); err == nil {
		t.Error("nil MeasureLoad should fail")
	}
	bad = good
	bad.History = nil
	if _, err := New(c, bad); err == nil {
		t.Error("nil history should fail")
	}
	bad = good
	bad.SlotWall = 0
	if _, err := New(c, bad); err == nil {
		t.Error("zero SlotWall should fail")
	}
	bad = good
	bad.Horizon = 1
	if _, err := New(c, bad); err == nil {
		t.Error("tiny horizon should fail")
	}
	bad = good
	bad.Params = plan.Params{}
	if _, err := New(c, bad); err == nil {
		t.Error("invalid params should fail")
	}
}

func TestControllerRunLoop(t *testing.T) {
	c := newTestCluster(t)
	full := buildScenario(200, 999, 999)
	next := 10
	measure := func() float64 {
		v := full.At(next % 200)
		next++
		return v
	}
	ctl, err := New(c, testConfig(t, full, 10, measure))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	if err := ctl.Run(ctx); err != context.DeadlineExceeded {
		t.Errorf("Run err = %v, want deadline exceeded", err)
	}
	if len(ctl.Events()) == 0 {
		t.Error("no events recorded by Run loop")
	}
	if ctl.History().Len() <= 10 {
		t.Error("history did not grow")
	}
}

func TestControllerManualFloor(t *testing.T) {
	c := newTestCluster(t)
	full := buildScenario(120, 999, 999) // flat 80: 1 machine suffices
	next := 10
	measure := func() float64 {
		v := full.At(next)
		next++
		return v
	}
	ctl, err := New(c, testConfig(t, full, 10, measure))
	if err != nil {
		t.Fatal(err)
	}
	// Without a floor, the controller scales in to 1 after confirmations...
	for i := 0; i < 4; i++ {
		stepUntilIdle(t, ctl)
	}
	if c.NumNodes() != 1 {
		t.Fatalf("nodes = %d, want 1", c.NumNodes())
	}
	// ...but a manual floor of 3 (a known upcoming promotion) forces the
	// cluster up despite the flat prediction.
	ctl.SetManualFloor(3)
	if ctl.ManualFloor() != 3 {
		t.Fatalf("floor = %d", ctl.ManualFloor())
	}
	for i := 0; i < 10 && c.NumNodes() < 3; i++ {
		stepUntilIdle(t, ctl)
	}
	if c.NumNodes() != 3 {
		t.Fatalf("nodes = %d with floor 3", c.NumNodes())
	}
	// Holding: scale-in plans are infeasible while the floor stands.
	for i := 0; i < 5; i++ {
		stepUntilIdle(t, ctl)
	}
	if c.NumNodes() != 3 {
		t.Fatalf("nodes dropped to %d despite floor", c.NumNodes())
	}
	// Clearing the floor lets the confirmations drain the cluster again.
	ctl.SetManualFloor(0)
	for i := 0; i < 8; i++ {
		stepUntilIdle(t, ctl)
	}
	if c.NumNodes() != 1 {
		t.Errorf("nodes = %d after clearing floor, want 1", c.NumNodes())
	}
	ctl.SetManualFloor(-5)
	if ctl.ManualFloor() != 0 {
		t.Errorf("negative floor should clamp to 0")
	}
}

func TestControllerInfeasibleResetsScaleInVotes(t *testing.T) {
	c := newTestCluster(t)
	if _, err := migration.Run(c, 2, migration.Options{BucketsPerChunk: 8, ChunkInterval: 0}); err != nil {
		t.Fatal(err)
	}
	// The oracle predicts flat 80, so every plan votes to scale in 2→1.
	// After two votes an unpredicted 450 arrives; with MaxNodes = 2 the
	// fallback cannot grow the cluster, so the slot is infeasible. That
	// slot breaks the run of votes: the scale-in must wait for three fresh
	// confirmations, not one.
	full := buildScenario(60, 999, 999)
	next := 10
	measure := func() float64 {
		next++
		if next == 13 {
			return 450
		}
		return full.At(next - 1)
	}
	cfg := testConfig(t, full, 10, measure)
	cfg.MaxNodes = 2
	ctl, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		stepUntilIdle(t, ctl)
		if c.NumNodes() != 2 {
			t.Fatalf("scaled in at step %d; events = %+v", i+1, ctl.Events())
		}
	}
	stepUntilIdle(t, ctl)
	if c.NumNodes() != 1 {
		t.Fatalf("nodes = %d after three fresh votes, want 1", c.NumNodes())
	}
	var kinds []string
	for _, ev := range ctl.Events() {
		kinds = append(kinds, ev.Kind)
	}
	want := []string{"hold", "hold", "infeasible", "hold", "hold", "scale-in"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("event kinds = %v, want %v", kinds, want)
	}
}

func TestControllerRefusesPolicyWithPStoreSettings(t *testing.T) {
	c := newTestCluster(t)
	full := buildScenario(60, 999, 999)
	cfg := testConfig(t, full, 10, func() float64 { return 80 })
	cfg.Policy = &policy.Reactive{Params: cfg.Params}
	if _, err := New(c, cfg); err == nil {
		t.Error("Policy together with Predictor should fail")
	}
	cfg.Predictor = nil
	if _, err := New(c, cfg); err == nil {
		t.Error("Policy together with P-Store settings should fail")
	}
	ctl, err := New(c, reactiveConfig(&policy.Reactive{}, func() float64 { return 80 }))
	if err != nil {
		t.Fatal(err)
	}
	ctl.SetManualFloor(3)
	if ctl.ManualFloor() != 0 {
		t.Error("a reactive policy has no manual floor")
	}
}

// reactiveConfig drives the controller with the reactive baseline on the
// same model as testConfig: Q = 100, Q̂ = 120 per node.
func reactiveConfig(r *policy.Reactive, measure func() float64) Config {
	r.Params = plan.Params{Q: 100, QHat: 120, D: 2, PartitionsPerNode: 1}
	return Config{
		Policy:      r,
		SlotWall:    10 * time.Millisecond,
		Migration:   migration.Options{BucketsPerChunk: 8, ChunkInterval: 100 * time.Microsecond},
		MeasureLoad: measure,
	}
}

func TestReactiveScalesOutOnlyWhenOverloaded(t *testing.T) {
	c := newTestCluster(t)
	load := 100.0
	ctl, err := New(c, reactiveConfig(&policy.Reactive{HighFraction: 0.95, ScaleInStreak: 3}, func() float64 { return load }))
	if err != nil {
		t.Fatal(err)
	}
	// Below the high watermark (0.95 · 120 · 1 = 114): no action, even
	// though the target capacity Q·1=100 is reached — the reactive system
	// waits for real overload.
	stepUntilIdle(t, ctl)
	if c.NumNodes() != 1 {
		t.Fatalf("scaled out below the watermark")
	}
	// Overload: 300 txn/slot needs 3 machines.
	load = 300
	stepUntilIdle(t, ctl)
	if c.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3", c.NumNodes())
	}
	evs := ctl.Events()
	if len(evs) != 2 || evs[0].Kind != "hold" || evs[1].Kind != "scale-out" || evs[1].From != 1 || evs[1].To != 3 {
		t.Errorf("events = %+v", evs)
	}
}

func TestReactiveScaleInStreak(t *testing.T) {
	c := newTestCluster(t)
	load := 500.0
	ctl, err := New(c, reactiveConfig(&policy.Reactive{}, func() float64 { return load }))
	if err != nil {
		t.Fatal(err)
	}
	stepUntilIdle(t, ctl)
	if c.NumNodes() != 5 {
		t.Fatalf("nodes = %d, want 5", c.NumNodes())
	}
	// Low load must persist for the streak before scale-in.
	load = 150
	for i := 0; i < 2; i++ {
		stepUntilIdle(t, ctl)
		if c.NumNodes() != 5 {
			t.Fatalf("scaled in after %d low observations", i+1)
		}
	}
	stepUntilIdle(t, ctl)
	if c.NumNodes() != 2 {
		t.Fatalf("nodes = %d after streak, want 2", c.NumNodes())
	}
}

func TestReactiveStreakResetOnNormalLoad(t *testing.T) {
	c := newTestCluster(t)
	if _, err := migration.Run(c, 2, migration.Options{BucketsPerChunk: 8}); err != nil {
		t.Fatal(err)
	}
	loads := []float64{100, 100, 180, 100, 100, 100}
	i := 0
	ctl, err := New(c, reactiveConfig(&policy.Reactive{}, func() float64 {
		v := loads[i%len(loads)]
		i++
		return v
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Two low readings, then 180 (needs 2 → not low) resets the streak.
	for s := 0; s < 5; s++ {
		stepUntilIdle(t, ctl)
		if c.NumNodes() != 2 {
			t.Fatalf("scaled in at step %d despite streak reset", s)
		}
	}
	stepUntilIdle(t, ctl)
	if c.NumNodes() != 1 {
		t.Fatalf("nodes = %d after 3 clean lows, want 1", c.NumNodes())
	}
}

func TestReactiveMaxNodesCap(t *testing.T) {
	c := newTestCluster(t)
	load := 2000.0
	ctl, err := New(c, reactiveConfig(&policy.Reactive{MaxNodes: 4, ScaleOutStreak: 2}, func() float64 { return load }))
	if err != nil {
		t.Fatal(err)
	}
	// The first overloaded slot only confirms (streak 2); the second acts,
	// capped at four nodes; at the cap, overload holds.
	stepUntilIdle(t, ctl)
	if c.NumNodes() != 1 {
		t.Fatalf("scaled out on the first overloaded slot of a streak of 2")
	}
	for i := 0; i < 3; i++ {
		stepUntilIdle(t, ctl)
		if c.NumNodes() != 4 {
			t.Fatalf("nodes = %d, want capped 4", c.NumNodes())
		}
	}
}

func TestReactiveRunLoop(t *testing.T) {
	c := newTestCluster(t)
	ctl, err := New(c, reactiveConfig(&policy.Reactive{}, func() float64 { return 50 }))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if err := ctl.Run(ctx); err != context.DeadlineExceeded {
		t.Errorf("Run err = %v", err)
	}
	if len(ctl.Events()) == 0 || ctl.History().Len() != len(ctl.Events()) {
		t.Errorf("events = %d, history = %d: want one of each per slot", len(ctl.Events()), ctl.History().Len())
	}
}

func TestReactiveDefaults(t *testing.T) {
	// Zero-valued policy: overload above 0.95·Q̂·N = 114, scale out on the
	// first overloaded slot, scale in after three low slots.
	c := newTestCluster(t)
	loads := []float64{113, 115, 50, 50, 50}
	i := 0
	ctl, err := New(c, reactiveConfig(&policy.Reactive{}, func() float64 { i++; return loads[i-1] }))
	if err != nil {
		t.Fatal(err)
	}
	var nodes []int
	for range loads {
		stepUntilIdle(t, ctl)
		nodes = append(nodes, c.NumNodes())
	}
	if want := []int{1, 2, 2, 2, 1}; fmt.Sprint(nodes) != fmt.Sprint(want) {
		t.Errorf("nodes per slot = %v, want %v", nodes, want)
	}
}

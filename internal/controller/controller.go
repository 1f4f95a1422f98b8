// Package controller implements the P-Store Predictive Controller (§6) as
// policy + actuator: each slot it measures the aggregate load, asks a
// policy.Policy for a decision, starts the migration that decision calls
// for, and logs it as an Event. The P-Store policy forecasts, plans with the
// dynamic program of §4.3 and acts on the first move only (receding-horizon
// control), with scale-in confirmations and a reactive fallback at rate R
// or R×8 when no plan is feasible (§4.3.1); the reactive baseline of §8.2
// runs through the same loop.
package controller

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/migration"
	"pstore/internal/plan"
	"pstore/internal/policy"
	"pstore/internal/predict"
	"pstore/internal/timeseries"
)

// Config tunes the controller. Either Policy is set, or Predictor and the
// fields documented as P-Store settings are, and New builds a
// policy.PStore from them.
type Config struct {
	// Policy decides each slot's target. When nil, New builds a
	// policy.PStore from the P-Store settings below.
	Policy policy.Policy
	// Params supplies Q, Q̂, D and P for the planner (P-Store setting).
	Params plan.Params
	// Predictor forecasts future load (P-Store setting). It must already
	// be fitted, and its training data must be in the same units as
	// MeasureLoad (load per slot).
	Predictor predict.Model
	// History seeds the observation window the policy sees; measured slots
	// are appended to it. Its Step must equal SlotWall ⋅ (trace
	// compression), i.e. one entry per controller slot.
	History *timeseries.Series
	// SlotWall is the wall-clock duration of one slot.
	SlotWall time.Duration
	// Horizon is how many slots ahead to plan (P-Store setting, τ_max).
	// Must satisfy Horizon ≥ 2·D/P to leave room for two back-to-back
	// reconfigurations (§5 "what is a good forecasting window").
	Horizon int
	// Inflate multiplies predictions for provisioning headroom (P-Store
	// setting; the paper inflates by 15% → 1.15). 0 means no inflation.
	Inflate float64
	// ScaleInConfirmations is the number of consecutive plans that must
	// call for a scale-in before it executes (P-Store setting, paper: 3).
	ScaleInConfirmations int
	// MaxNodes caps the fallback scale-out (P-Store setting, 0 = unlimited).
	MaxNodes int
	// Migration configures the regular migration rate R.
	Migration migration.Options
	// FastFallback uses rate R×8 for the reactive fallback (P-Store
	// setting, §8.2's second strategy); otherwise the fallback migrates at
	// the regular rate R.
	FastFallback bool
	// MeasureLoad returns the load observed since the last call (one
	// slot's transaction count). Required.
	MeasureLoad func() float64
}

// Event records one controller decision.
type Event struct {
	At       time.Time
	Slot     int
	Load     float64
	From, To int
	Kind     string // one of policy.Hold, ScaleOut, ScaleIn, Fallback, Infeasible
	Note     string
}

// Controller runs the monitor → decide → migrate loop.
type Controller struct {
	cfg     Config
	c       *cluster.Cluster
	policy  policy.Policy
	history *timeseries.Series

	mu       sync.Mutex
	events   []Event
	slot     int
	inflight *migration.Migration
}

// New validates the configuration and returns a controller.
func New(c *cluster.Cluster, cfg Config) (*Controller, error) {
	if cfg.MeasureLoad == nil {
		return nil, fmt.Errorf("controller: MeasureLoad is required")
	}
	if cfg.SlotWall <= 0 {
		return nil, fmt.Errorf("controller: SlotWall must be positive")
	}
	ctl := &Controller{cfg: cfg, c: c, policy: cfg.Policy}
	if cfg.History != nil {
		ctl.history = cfg.History.Clone()
	} else {
		ctl.history = timeseries.New(time.Time{}, cfg.SlotWall, nil)
	}
	if cfg.Policy != nil {
		if cfg.Predictor != nil || cfg.Params != (plan.Params{}) || cfg.Horizon != 0 || cfg.Inflate != 0 ||
			cfg.ScaleInConfirmations != 0 || cfg.MaxNodes != 0 || cfg.FastFallback {
			return nil, fmt.Errorf("controller: Policy replaces the P-Store settings (Predictor, Params, Horizon, Inflate, ScaleInConfirmations, MaxNodes, FastFallback); set one or the other")
		}
		return ctl, nil
	}
	if cfg.Predictor == nil {
		return nil, fmt.Errorf("controller: Policy or Predictor is required")
	}
	if ctl.history.Len() < cfg.Predictor.MinHistory() {
		return nil, fmt.Errorf("controller: History must seed at least MinHistory=%d slots", cfg.Predictor.MinHistory())
	}
	if cfg.Horizon < 2 {
		return nil, fmt.Errorf("controller: Horizon must be ≥ 2, got %d", cfg.Horizon)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	ctl.policy = &policy.PStore{
		Params:        cfg.Params,
		Predictor:     cfg.Predictor,
		Horizon:       cfg.Horizon,
		Inflate:       cfg.Inflate,
		Confirmations: cfg.ScaleInConfirmations,
		MaxNodes:      cfg.MaxNodes,
		FastFallback:  cfg.FastFallback,
	}
	return ctl, nil
}

// SetManualFloor sets a minimum machine count the P-Store policy will
// maintain regardless of predictions (policy.PStore.SetFloor, the paper's
// manual provisioning for expected events). A floor of 0 clears it; it takes
// effect at the next control cycle. Other policies have no floor, and the
// call is a no-op for them.
func (ctl *Controller) SetManualFloor(machines int) {
	if ps, ok := ctl.policy.(*policy.PStore); ok {
		ps.SetFloor(machines)
	}
}

// ManualFloor returns the current manual-provisioning floor (0 = none).
func (ctl *Controller) ManualFloor() int {
	if ps, ok := ctl.policy.(*policy.PStore); ok {
		return ps.Floor()
	}
	return 0
}

// Events returns the decisions taken so far.
func (ctl *Controller) Events() []Event {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	return append([]Event(nil), ctl.events...)
}

// Run executes the control loop until ctx is cancelled.
func (ctl *Controller) Run(ctx context.Context) error {
	ticker := time.NewTicker(ctl.cfg.SlotWall)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
		if err := ctl.Step(ctx); err != nil {
			return err
		}
	}
}

// Step performs one monitor→decide→act cycle. Exposed for deterministic
// tests and simulations; Run calls it once per slot. Monitoring continues
// during an in-flight migration (the measurement is appended every slot so
// the history stays aligned with the timeline), but the policy is not asked
// for a new decision until the migration completes. Step never blocks on a
// migration — it starts one in the background — so it has no use for the
// context.
func (ctl *Controller) Step(context.Context) error {
	load := ctl.cfg.MeasureLoad()
	ctl.mu.Lock()
	ctl.history.Append(load)
	ctl.slot++
	slot := ctl.slot
	inflight := ctl.inflight
	ctl.mu.Unlock()

	if inflight != nil {
		select {
		case <-inflight.Done():
			_, err := inflight.Wait()
			ctl.mu.Lock()
			ctl.inflight = nil
			ctl.mu.Unlock()
			if err != nil {
				return fmt.Errorf("controller: migration failed: %w", err)
			}
		default:
			// Reconfiguration still running; keep monitoring.
			return nil
		}
	}

	n := ctl.c.NumNodes()
	d, err := ctl.policy.Decide(ctl.history, n)
	if err != nil {
		return fmt.Errorf("controller: %w", err)
	}
	ctl.mu.Lock()
	ctl.events = append(ctl.events, Event{At: time.Now(), Slot: slot, Load: load, From: n, To: d.Target, Kind: d.Kind, Note: d.Note})
	ctl.mu.Unlock()
	if d.Target == n {
		return nil
	}
	opts := ctl.cfg.Migration
	if d.Fast {
		opts.RateMultiplier = policy.FastRate
	}
	m, err := migration.Start(ctl.c, d.Target, opts)
	if err != nil {
		return err
	}
	ctl.mu.Lock()
	ctl.inflight = m
	ctl.mu.Unlock()
	return nil
}

// WaitIdle blocks until no migration is in flight (for experiment
// teardown).
func (ctl *Controller) WaitIdle() error {
	ctl.mu.Lock()
	m := ctl.inflight
	ctl.mu.Unlock()
	if m == nil {
		return nil
	}
	_, err := m.Wait()
	ctl.mu.Lock()
	ctl.inflight = nil
	ctl.mu.Unlock()
	return err
}

// History returns a snapshot of the measured-load history.
func (ctl *Controller) History() *timeseries.Series {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	return ctl.history.Clone()
}

package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pstore/internal/controller"
	"pstore/internal/metrics"
	"pstore/internal/migration"
	"pstore/internal/plan"
	"pstore/internal/policy"
	"pstore/internal/predict"
	"pstore/internal/timeseries"
	"pstore/internal/workload"
)

// Approach identifies one elasticity strategy of Fig 9.
type Approach string

// The four approaches compared in §8.2.
const (
	ApproachStaticPeak  Approach = "static-peak"  // Fig 9a: provisioned for peak
	ApproachStaticSmall Approach = "static-small" // Fig 9b: under-provisioned static
	ApproachReactive    Approach = "reactive"     // Fig 9c: E-Store-style
	ApproachPStore      Approach = "pstore"       // Fig 9d: P-Store with SPAR
)

// ApproachResult captures one Fig 9 panel plus its Table 2 row.
type ApproachResult struct {
	Approach    Approach
	Windows     []metrics.WindowStats
	Throughput  []float64 // completed txns per latency window
	Machines    []MachinePoint
	SLA         metrics.SLAReport
	AvgMachines float64
	Requests    int64
	Dropped     int64
	// Events records the controller's decisions (reactive and P-Store runs).
	Events []controller.Event
}

// MachinePoint is a (time, machines) step of the allocation curve.
type MachinePoint struct {
	At       time.Time
	Machines int
}

// ApproachesConfig parameterizes the Fig 9 comparison.
type ApproachesConfig struct {
	Scale  Scale
	Params plan.Params // discovered Q/Q̂ (per slot) and D (slots)
	// Trace is the load to replay, in transactions per slot. ReplayStart
	// is the first replayed slot (earlier slots are predictor history).
	Trace       *timeseries.Series
	ReplayStart int
	// PeakNodes and SmallNodes are the two static allocations (paper: 10
	// and 4).
	PeakNodes, SmallNodes int
	// Predictor is a fitted model for the P-Store run.
	Predictor predict.Model
	// Horizon and Inflate configure the controller (paper: 2D/P slots and
	// 1.15).
	Horizon int
	Inflate float64
	// Migration is the regular rate-R migration configuration.
	Migration migration.Options
	// FastFallback makes the P-Store controller's reactive fallback
	// migrate at rate R×8 instead of R (Fig 11's second strategy).
	FastFallback bool
}

// RunApproach replays the trace against one elasticity approach and
// measures its Fig 9 panel.
func RunApproach(cfg ApproachesConfig, a Approach) (res *ApproachResult, err error) {
	sc := cfg.Scale
	initial := initialNodes(cfg, a)
	c, d, err := newB2WCluster(sc, initial)
	if err != nil {
		return nil, err
	}
	defer c.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ctlWG sync.WaitGroup

	// Per-slot load measurement for the controller. The delta is
	// normalized by the wall time actually elapsed since the last call, so
	// a delayed controller tick does not read as a burst of load.
	var measureMu sync.Mutex
	prevTotal := 0
	prevAt := time.Now()
	measure := func() float64 {
		measureMu.Lock()
		defer measureMu.Unlock()
		now := time.Now()
		total := c.OfferedLoad().Total()
		delta := float64(total - prevTotal)
		elapsed := now.Sub(prevAt)
		prevTotal = total
		prevAt = now
		if elapsed > sc.SlotWall {
			delta *= float64(sc.SlotWall) / float64(elapsed)
		}
		return delta
	}

	// Both elastic approaches run through the same controller; only the
	// policy differs.
	ctlCfg := controller.Config{SlotWall: sc.SlotWall, Migration: cfg.Migration, MeasureLoad: measure}
	switch a {
	case ApproachStaticPeak, ApproachStaticSmall:
		// No controller.
	case ApproachReactive:
		// Trigger only at true overload — offered load approaching the
		// saturation rate (Q̂ is 80% of saturation, so 1.15·Q̂ ≈ 92% of
		// saturation) — as E-Store does: the reactive system reconfigures
		// when performance issues are already present (§2).
		ctlCfg.Policy = &policy.Reactive{
			Params:         cfg.Params,
			HighFraction:   1.15,
			ScaleOutStreak: 2,
			ScaleInStreak:  3,
			MaxNodes:       cfg.PeakNodes,
		}
	case ApproachPStore:
		ctlCfg.Params = cfg.Params
		ctlCfg.Predictor = cfg.Predictor
		ctlCfg.History = cfg.Trace.Slice(0, cfg.ReplayStart)
		ctlCfg.Horizon = cfg.Horizon
		ctlCfg.Inflate = cfg.Inflate
		ctlCfg.ScaleInConfirmations = 3
		ctlCfg.MaxNodes = cfg.PeakNodes
		ctlCfg.FastFallback = cfg.FastFallback
	default:
		return nil, fmt.Errorf("experiments: unknown approach %q", a)
	}
	if a == ApproachReactive || a == ApproachPStore {
		var ctl *controller.Controller
		ctl, err = controller.New(c, ctlCfg)
		if err != nil {
			return nil, err
		}
		ctlWG.Add(1)
		go func() {
			defer ctlWG.Done()
			_ = ctl.Run(ctx)
		}()
		defer func() { _ = ctl.WaitIdle() }()
		defer func() {
			if res != nil {
				res.Events = ctl.Events()
			}
		}()
	}

	// Open-loop replay of the trace tail.
	replaySeries := cfg.Trace.Slice(cfg.ReplayStart, cfg.Trace.Len())
	var callWG sync.WaitGroup
	stats, err := workload.ReplayBatched(ctx, replaySeries, workload.ReplayConfig{
		SlotWall:  sc.SlotWall,
		LoadScale: 1,
		MaxLag:    sc.SlotWall,
		Batch:     16,
	}, func(_, n int) {
		callWG.Add(n)
		for j := 0; j < n; j++ {
			go func() {
				defer callWG.Done()
				c.Call(d.Next())
			}()
		}
	})
	if err != nil {
		return nil, err
	}
	cancel()
	ctlWG.Wait()
	callWG.Wait()

	res = &ApproachResult{Approach: a, Requests: stats.Requests, Dropped: stats.Dropped}
	res.Windows = c.Latencies().Windows()
	for _, w := range res.Windows {
		res.Throughput = append(res.Throughput, float64(w.Count))
	}
	res.SLA = metrics.SLAViolations(res.Windows, sc.SLAThreshold)
	res.AvgMachines = c.Allocation().Average(time.Now())
	for _, pt := range c.Allocation().Series() {
		res.Machines = append(res.Machines, MachinePoint{At: pt.At, Machines: pt.Machines})
	}
	return res, nil
}

// initialNodes picks the starting allocation: static approaches get their
// fixed size; elastic approaches start sized for the first replayed slot.
func initialNodes(cfg ApproachesConfig, a Approach) int {
	switch a {
	case ApproachStaticPeak:
		return cfg.PeakNodes
	case ApproachStaticSmall:
		return cfg.SmallNodes
	default:
		return cfg.Params.RequiredMachines(cfg.Trace.At(cfg.ReplayStart))
	}
}

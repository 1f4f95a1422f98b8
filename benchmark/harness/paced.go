package harness

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/cluster"
	"pstore/internal/controller"
	"pstore/internal/experiments"
	"pstore/internal/metrics"
	"pstore/internal/plan"
	"pstore/internal/predict"
	"pstore/internal/timeseries"
	"pstore/internal/workload"
)

const (
	// auditCarts is the reserved population only the harness's own
	// AddLineToCart stream touches, so a lost write on the paced workloads
	// can only be a move's doing, not the mix's own deletes.
	auditCarts = 256
	// auditEvery replaces every n-th request of the mix with an audit write.
	auditEvery = 16
	trainDays  = 4
	// minNodes is b2w_day's allocation floor (see runB2WDay).
	minNodes = 2
)

// Seed streams: one run seed derives every generator's seed, and the system
// under test receives only generated requests.
const (
	streamTrace = iota + 1
	streamDriver
	streamAudit
)

func derive(seed int64, stream int) int64 { return seed*1000003 + int64(stream) }

// pacedSystem is the deployment of the two open-loop workloads: QuickScale's
// engine (1.2 ms of paced service time per transaction, 2 partitions per
// node, 256 buckets), k=0, in memory.
type pacedSystem struct {
	*System
	driver *b2w.Driver
	audit  *cartSet
}

func buildPaced(o Options, sc experiments.Scale, nodes, carts int) (*pacedSystem, error) {
	driver := b2w.NewDriver(b2w.DriverConfig{StockItems: sc.StockItems, CartPool: carts, Seed: derive(o.Seed, streamDriver)})
	audit := newCartSet("audit", auditCarts, o.Env.Conns, derive(o.Seed, streamAudit))
	cfg := cluster.Config{
		InitialNodes:      nodes,
		PartitionsPerNode: sc.PartitionsPerNode,
		NBuckets:          sc.NBuckets,
		Tables:            b2w.Tables,
		Registry:          newRegistry(),
		Engine:            sc.EngineConfig(),
		LatencyWindow:     sc.LatencyWindow,
	}
	mig := (&experiments.Setup{Scale: sc}).MigrationOptions()
	s, err := Assemble(cfg, mig, o.Env.Conns, o.Traced, func(c *cluster.Cluster) error {
		if err := driver.Preload(c, carts); err != nil {
			return err
		}
		return audit.preload(c)
	})
	if err != nil {
		return nil, err
	}
	return &pacedSystem{System: s, driver: driver, audit: audit}, nil
}

// nextRequest draws the next request of the full 19-procedure mix, swapping
// every auditEvery-th for a write of the audit stream.
func (s *pacedSystem) nextRequest() func() request {
	n := 0
	return func() request {
		n++
		if n%auditEvery == 0 {
			k := n / auditEvery
			return request{cart: k % auditCarts, sku: k % skusPerCart}
		}
		t := s.driver.Next()
		return request{proc: t.Proc, key: t.Key, args: t.Args, cart: -1}
	}
}

// pacedOutcome is what both open-loop workloads hand to reporting.
type pacedOutcome struct {
	gen           *openLoop
	obs           *observer
	lr            *loadResult
	tr            *tracer // nil on untraced runs
	before, after counterSnap
	rowsMoved     float64
}

// drive runs the open loop over the schedule while background runs beside
// it, then drains: background must return once ctx is cancelled, and quiesce
// waits out whatever reconfiguration is still in flight.
func (s *pacedSystem) drive(o Options, slots int, slotWall time.Duration, count func(int) int,
	background func(ctx context.Context, epoch time.Time, tr *tracer), quiesce func() error) (*pacedOutcome, error) {
	settleMemory()
	out := &pacedOutcome{before: s.snapCounters()}
	rtBefore := snapRuntime()
	epoch := time.Now()
	if o.Traced {
		out.tr = newTracer(epoch)
	}
	gen := &openLoop{clients: s.Clients, carts: s.audit, epoch: epoch, maxInflight: 20000}
	obs := startObserver(s.Cluster, epoch, o.Traced)
	ctx, cancel := context.WithCancel(context.Background())
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		background(ctx, epoch, out.tr)
	}()
	cpu0 := cpuTime()
	gen.pace(slots, slotWall, count, s.nextRequest())
	wall, cpu := time.Since(epoch), cpuTime()-cpu0
	end := time.Now()
	cancel()
	bg.Wait()
	err := quiesce()
	gen.wait()
	obs.finish()
	out.after = s.snapCounters()
	if err != nil {
		return nil, err
	}
	for _, e := range s.Cluster.Executors() {
		out.rowsMoved += float64(e.MigratedRows())
	}
	out.gen, out.obs = gen, obs
	out.lr = &loadResult{
		samples: gen.samples, moves: obs.moves, wall: wall, cpu: cpu, rssMax: obs.rssMax,
		avgMachines: s.Cluster.Allocation().Average(end), slo: sloPaced,
		before: rtBefore, after: snapRuntime(),
	}
	return out, nil
}

// reportPaced fills in what b2w_day and scale_cycle report alike: the
// generator's validity, the gates, and (traced) the counter-backed layers.
func (s *pacedSystem) reportPaced(o Options, r *Run, out *pacedOutcome, setup []float64, sc experiments.Scale) error {
	sp := finishRun(r, out.lr, setup)
	lag := NewDist(out.gen.lagNs)
	lagP99, _ := lag.Quantile(0.99)
	if lagP99 > 5e6 || float64(out.gen.dropped) > 0.001*float64(sp.attempted) {
		r.Valid = false
		r.note("generator fell behind (lag p99 %.2f ms, %d events dropped): this run measures the generator, not the system", lagP99/1e6, out.gen.dropped)
	}
	if o.BreakAudit {
		s.audit.addPhantom()
	}
	r.gate("audit-cart-conservation", s.audit.audit(s.Cluster, o.Env.GOMAXPROCS))
	r.gate("bucket-ownership", checkOwnership(s.Cluster))
	if !o.Traced {
		return nil
	}
	m := r.Metrics
	emitLayerCounters(m, s.Cluster, out.before, out.after, sp.ok, sc.ServiceTime, out.gen.busy)
	// Executors migrated away are gone, so rows moved is a lower bound after
	// a scale-in; each row is counted at both ends of its move.
	emitMoves(m, out.obs.moves, out.obs.moveFrom, out.obs.moveTo, out.rowsMoved/2, out.lr.wall, sc.SlotWall, sc.PartitionsPerNode)
	obs := out.obs
	obs.emit(m)
	m.setQuantile("workload.gen_lag_p99_ms", lag, 0.99, 1e-6, "ms")
	m.Set("workload.dropped", float64(out.gen.dropped), "count", 0)
	next := timeBatched(100, 100, func(int) { s.driver.Next() })
	m.Set("workload.next_us", next.Median()/1e3, "us", len(next)*100)
	ping, err := timeSerial(o.Scale.ProbeCalls, func(int) error { return s.Clients[0].Ping() })
	if err != nil {
		return fmt.Errorf("ping: %w", err)
	}
	m.Set("server.ping_rtt_us", ping.Median(), "us", len(ping))
	sla := metrics.SLAViolations(timeWindows(m, s.Cluster), sloPaced)
	m.Set("controller.viol_windows_p50", float64(sla.P50Violations), "count", sla.Windows)
	m.Set("controller.viol_windows_p95", float64(sla.P95Violations), "count", sla.Windows)
	m.Set("controller.viol_windows_p99", float64(sla.P99Violations), "count", sla.Windows)

	tr := out.tr
	for i, mv := range obs.moves {
		tr.add(fmt.Sprintf("migration.run %d→%d", obs.moveFrom[i], obs.moveTo[i]), 0,
			tr.epoch.Add(time.Duration(mv.start)), tr.epoch.Add(time.Duration(mv.end)))
	}
	r.TraceFile = filepath.Join(o.OutDir, "trace-"+o.Workload+".jsonl")
	return tr.write(r.TraceFile, o.Workload, out.gen.samples)
}

// runScaleCycle is Fig 8 made continuous: a constant 2 060 tps (Q × 2 nodes)
// of the B2W mix while the harness scales 2→4→2→… through Client.Scale. No
// controller, no predictor: migration, storage's bucket handoff and the
// cluster's re-routing do the work.
func runScaleCycle(o Options, r *Run) error {
	sc := experiments.QuickScale()
	params := experiments.QuickParams(sc)
	perSlot := int(math.Round(2 * params.Q))
	slots := int(o.Seconds / sc.SlotWall.Seconds())

	sys, setup, err := repeatSetup(o.Scale, func() (*pacedSystem, error) {
		return buildPaced(o, sc, 2, o.Scale.ScaleCarts)
	}, func(s *pacedSystem) { s.Close() })
	if err != nil {
		return err
	}
	defer sys.Close()

	var scaleErr error // written by cycle, read after drive has waited for it
	cycle := func(ctx context.Context, _ time.Time, tr *tracer) {
		for target := 4; ctx.Err() == nil; target = 6 - target {
			start := time.Now()
			err := sys.Clients[0].Scale(target)
			tr.add(fmt.Sprintf("client.scale %d", target), 0, start, time.Now())
			if err != nil {
				scaleErr = fmt.Errorf("Scale(%d): %w", target, err)
				return
			}
			select {
			case <-ctx.Done():
			case <-time.After(o.Scale.Dwell):
			}
		}
	}
	out, err := sys.drive(o, slots, sc.SlotWall, func(int) int { return perSlot }, cycle, func() error { return nil })
	if err != nil {
		return err
	}
	r.gate("scale-requests", scaleErr)
	if err := sys.reportPaced(o, r, out, setup, sc); err != nil {
		return err
	}
	if o.Traced {
		part, err := standalonePartition(sys.audit)
		if err != nil {
			return err
		}
		handoff, err := timeBucketHandoff(part, part.OwnedBuckets())
		if err != nil {
			return err
		}
		r.Metrics.Set("storage.bucket_handoff_us", handoff.Median(), "us", len(handoff))
	}
	return nil
}

// timedModel decorates the predictor handed to the controller — the public
// seam the predict.Model interface offers: it times every Forecast and keeps
// what was forecast, so accuracy is scored later against the load that was
// then measured. Only Controller.Step calls it, on the harness's control
// goroutine, so it needs no lock.
type timedModel struct {
	predict.Model
	nodes  func() int
	tr     *tracer
	parent uint64 // the controller.step span a Forecast belongs to
	calls  []forecastCall
}

type forecastCall struct {
	histLen  int // history length when called: forecast[i] predicts slot histLen+i
	nodes    int
	forecast []float64
	us       float64
}

func (t *timedModel) Forecast(h *timeseries.Series, horizon int) ([]float64, error) {
	start := time.Now()
	out, err := t.Model.Forecast(h, horizon)
	end := time.Now()
	t.calls = append(t.calls, forecastCall{histLen: h.Len(), nodes: t.nodes(), forecast: append([]float64(nil), out...),
		us: float64(end.Sub(start).Nanoseconds()) / 1e3})
	t.tr.add("predict.forecast", t.parent, start, end)
	return out, err
}

// runB2WDay is the paper's headline (Fig 9d / Table 2): a synthetic B2W
// trace replayed open loop through the TCP client, with the SPAR-driven
// predictive controller in the loop deciding when to move and to how many
// machines. predict, plan, controller and migration do the work; every
// request is ≥ 1.2 ms of paced service time, so the server, storage and
// engine hops are a few percent of latency here.
func runB2WDay(o Options, r *Run) error {
	sc := experiments.QuickScale()
	sc.SlotWall = o.Scale.SlotWall
	params := experiments.QuickParams(sc)
	slots := int(o.Seconds / sc.SlotWall.Seconds())
	replayDays := (slots + sc.SlotsPerDay - 1) / sc.SlotsPerDay

	gen := workload.DefaultB2WConfig()
	gen.Days = trainDays + replayDays
	gen.SlotsPerDay = sc.SlotsPerDay
	gen.Seed = derive(o.Seed, streamTrace)
	gen.PeakLoad = 5.5 * params.Q
	gen.TroughLoad = gen.PeakLoad / 10
	// Seeds should differ in noise, not in what the day asks of the system:
	// a 10 % day-to-day amplitude drift or a promotion spike (Fig 11's
	// scenario, not this one) moves avg_machines by more than its bound.
	gen.DailyDriftFrac = 0.02
	gen.PromoProb = 0
	trace := workload.GenerateB2W(gen)
	replayStart := trainDays * sc.SlotsPerDay
	// Pin the replayed peak, so seeds differ in shape and not in how many
	// machines the peak needs.
	trace.Scale(gen.PeakLoad / trace.Slice(replayStart, replayStart+slots).Max())
	replay := trace.Slice(replayStart, replayStart+slots)

	horizon := max(params.RecommendedHorizon()+2, 10)
	peakNodes := params.RequiredMachines(replay.Max()) + 1
	initial := max(params.RequiredMachines(replay.At(0)), minNodes)

	type b2wSystem struct {
		*pacedSystem
		model  *timedModel
		fitMS  float64
		fitErr error
	}
	sys, setup, err := repeatSetup(o.Scale, func() (*b2wSystem, error) {
		ps, err := buildPaced(o, sc, initial, sc.PreloadCarts)
		if err != nil {
			return nil, err
		}
		spar := predict.NewSPAR(predict.SPARConfig{Period: sc.SlotsPerDay, NPeriods: trainDays - 2, MRecent: 10, MaxRows: 4000})
		// SPAR fits each horizon step lazily on first use: forecast the whole
		// horizon once so fitting is part of set-up, not of the first slots.
		start := time.Now()
		history := trace.Slice(0, replayStart)
		err = spar.Fit(history)
		if err == nil {
			_, err = spar.Forecast(history, horizon)
		}
		if err != nil {
			ps.Close()
			return nil, fmt.Errorf("fitting SPAR: %w", err)
		}
		fit := time.Since(start)
		return &b2wSystem{pacedSystem: ps, model: &timedModel{Model: spar, nodes: ps.Cluster.NumNodes},
			fitMS: float64(fit.Microseconds()) / 1e3}, nil
	}, func(s *b2wSystem) { s.Close() })
	if err != nil {
		return err
	}
	defer sys.Close()
	c := sys.Cluster

	// Per-slot load, as the Fig 9 runs measure it: the offered-load delta,
	// normalized when a late tick stretched the slot.
	prevTotal, prevAt := c.OfferedLoad().Total(), time.Now()
	measure := func() float64 {
		now, total := time.Now(), c.OfferedLoad().Total()
		delta := float64(total - prevTotal)
		if elapsed := now.Sub(prevAt); elapsed > sc.SlotWall {
			delta *= float64(sc.SlotWall) / float64(elapsed)
		}
		prevTotal, prevAt = total, now
		return delta
	}
	ctl, err := controller.New(c, controller.Config{
		Params:               params,
		Predictor:            sys.model,
		History:              trace.Slice(0, replayStart),
		SlotWall:             sc.SlotWall,
		Horizon:              horizon,
		Inflate:              1.15,
		ScaleInConfirmations: 3,
		MaxNodes:             peakNodes,
		Migration:            (&experiments.Setup{Scale: sc}).MigrationOptions(),
		MeasureLoad:          measure,
	})
	if err != nil {
		return err
	}
	// A one-node cluster cannot migrate its way out of saturation — its two
	// executors are the source of every bucket and the copy slices queue
	// behind the very backlog they should relieve — so one run in ten
	// collapsed there (p50 546 ms) instead of measuring anything. Two nodes
	// is the floor, through the controller's own manual-provisioning seam.
	ctl.SetManualFloor(minNodes)

	// The harness is the control loop's clock: one Step per slot boundary.
	var (
		stepUS, lateMS []float64
		slotNodes      []int
		stepErr        error
	)
	control := func(ctx context.Context, epoch time.Time, tr *tracer) {
		sys.model.tr = tr
		for slot := 1; slot <= slots; slot++ {
			tick := epoch.Add(time.Duration(slot) * sc.SlotWall)
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Until(tick)):
			}
			start := time.Now()
			id := tr.reserve()
			sys.model.parent = id
			slotNodes = append(slotNodes, c.NumNodes())
			err := ctl.Step(ctx)
			end := time.Now()
			tr.addWithID(id, "controller.step", 0, start, end)
			lateMS = append(lateMS, float64(start.Sub(tick).Nanoseconds())/1e6)
			stepUS = append(stepUS, float64(end.Sub(start).Nanoseconds())/1e3)
			if err != nil {
				stepErr = err
				return
			}
		}
	}
	out, err := sys.drive(o, slots, sc.SlotWall, func(slot int) int { return int(replay.At(slot) + 0.5) }, control, ctl.WaitIdle)
	if err != nil {
		return err
	}
	r.gate("controller-steps", stepErr)
	if err := sys.reportPaced(o, r, out, setup, sc); err != nil {
		return err
	}
	if !o.Traced {
		return nil
	}

	m := r.Metrics
	m.Set("predict.fit_ms", sys.fitMS, "ms", 1)
	steps, late := NewDist(stepUS), NewDist(lateMS)
	m.Set("controller.step_p50_us", steps.Median(), "us", len(steps))
	m.Set("controller.step_max_us", steps.Max(), "us", len(steps))
	m.setQuantile("controller.tick_late_p95_ms", late, 0.95, 1, "ms")
	kinds := map[string]float64{}
	for _, ev := range ctl.Events() {
		kinds[ev.Kind]++
	}
	m.Set("controller.scale_outs", kinds["scale-out"], "count", 0)
	m.Set("controller.scale_ins", kinds["scale-in"], "count", 0)
	m.Set("controller.fallbacks", kinds["fallback"], "count", 0)
	m.Set("controller.holds", kinds["hold"], "count", 0)
	m.Set("plan.infeasible", kinds["infeasible"]+kinds["fallback"], "count", 0)

	// Score forecasts against the load measured one and horizon slots later,
	// and replay every recorded load vector through the planner.
	hist := ctl.History().Values
	var fus, err1, errH, planUS []float64
	for _, call := range sys.model.calls {
		fus = append(fus, call.us)
		for _, ahead := range []int{1, horizon} {
			idx := call.histLen + ahead - 1
			if ahead > len(call.forecast) || idx >= len(hist) || hist[idx] <= 0 {
				continue
			}
			rel := math.Abs(call.forecast[ahead-1]-hist[idx]) / hist[idx]
			if ahead == 1 {
				err1 = append(err1, rel)
			} else {
				errH = append(errH, rel)
			}
		}
		vec := make([]float64, 0, len(call.forecast)+1)
		vec = append(vec, hist[call.histLen-1])
		for _, v := range call.forecast {
			vec = append(vec, v*1.15)
		}
		start := time.Now()
		_, _ = plan.BestMoves(vec, call.nodes, params) // infeasible plans cost time too
		planUS = append(planUS, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m.Set("predict.forecast_us", NewDist(fus).Median(), "us", len(fus))
	m.Set("predict.mre_1", NewDist(err1).Mean(), "ratio", len(err1))
	m.Set("predict.mre_h", NewDist(errH).Mean(), "ratio", len(errH))
	m.Set("plan.bestmoves_us", NewDist(planUS).Median(), "us", len(planUS))
	r.Counters["predict_calls"] = int64(len(fus))
	r.Counters["plan_calls"] = int64(len(planUS))

	// Per slot: was the allocation short of the measured load (Fig 12's
	// "% time insufficient"), and how much target capacity sat idle.
	measured := hist[replayStart:]
	var short, over float64
	n := min(len(measured), len(slotNodes))
	for i := 0; i < n; i++ {
		if measured[i] > params.QHat*float64(slotNodes[i]) {
			short++
		}
		capacity := params.Cap(slotNodes[i])
		over += (capacity - measured[i]) / capacity
	}
	m.Set("controller.insufficient_slot_frac", ratio(short, float64(n)), "ratio", n)
	m.Set("plan.overprovision_frac", ratio(over, float64(n)), "ratio", n)
	if d := m["migration.d_measured_slots"]; d.N > 0 {
		m.Set("plan.d_model_ratio", d.Value/params.D, "ratio", d.N)
	}
	return nil
}

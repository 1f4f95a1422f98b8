// Package pstore's root benchmark harness regenerates every table and
// figure of the paper's evaluation on this substrate. Each Benchmark
// function corresponds to one paper artifact (see DESIGN.md §3 for the
// index); running
//
//	go test -bench=. -benchmem
//
// prints the rows/series the paper reports, at compressed time scale.
// Reported custom metrics carry the headline number of each artifact.
package pstore

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"pstore/internal/experiments"
	"pstore/internal/metrics"
	"pstore/internal/migration"
	"pstore/internal/plan"
	"pstore/internal/policy"
	"pstore/internal/predict"
	"pstore/internal/sim"
	"pstore/internal/timeseries"
	"pstore/internal/workload"
)

// benchScale is the compressed-time substrate for engine benches: a trace
// day passes in ~3.8s.
func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.SlotsPerDay = 96
	sc.SlotWall = 40 * time.Millisecond
	return sc
}

// once guards the one-time printing of each bench's table.
var printed sync.Map

func printOnce(b *testing.B, key string, f func()) {
	if _, dup := printed.LoadOrStore(key, true); !dup {
		f()
	}
	_ = b
}

// ---------------------------------------------------------------------------
// Fig 1: B2W load shape — diurnal pattern with ~10× peak-to-trough.

func BenchmarkFig01LoadShape(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		cfg := workload.DefaultB2WConfig()
		cfg.Days = 3
		s := workload.GenerateB2W(cfg)
		ratio = s.Max() / s.Min()
	}
	b.ReportMetric(ratio, "peak/trough")
	printOnce(b, "fig1", func() {
		cfg := workload.DefaultB2WConfig()
		cfg.Days = 3
		s := workload.GenerateB2W(cfg)
		fmt.Printf("\nFig 1 — B2W load over 3 days (hourly samples, requests/min):\n")
		for h := 0; h < 72; h += 4 {
			fmt.Printf("  t=%2dh load=%7.0f\n", h, s.At(h*60))
		}
		fmt.Printf("  peak/trough = %.1f (paper: ≈10×)\n", s.Max()/s.Min())
	})
}

// ---------------------------------------------------------------------------
// Fig 2: ideal capacity vs integral step allocation for a sinusoidal demand.

func BenchmarkFig02StepAllocation(b *testing.B) {
	p := plan.Params{Q: 285, QHat: 350, D: 8, PartitionsPerNode: 6}
	var avg float64
	for i := 0; i < b.N; i++ {
		sum := 0
		for t := 0; t < 144; t++ {
			load := 1500 + 1200*math.Sin(2*math.Pi*float64(t)/144)
			sum += p.RequiredMachines(load)
		}
		avg = float64(sum) / 144
	}
	b.ReportMetric(avg, "avg-machines")
	printOnce(b, "fig2", func() {
		fmt.Printf("\nFig 2 — ideal capacity vs step allocation (sinusoidal demand, Q=%.0f):\n", p.Q)
		for t := 0; t < 144; t += 12 {
			load := 1500 + 1200*math.Sin(2*math.Pi*float64(t)/144)
			n := p.RequiredMachines(load)
			fmt.Printf("  t=%3d demand=%6.0f ideal=%5.2f servers=%d (cap %5.0f)\n",
				t, load, load/p.Q, n, p.Cap(n))
		}
	})
}

// ---------------------------------------------------------------------------
// Fig 3: the planner's goal — a series of moves from B=2 at t=0 to A=4 at
// t=9 such that capacity exceeds demand and cost is minimized.

func BenchmarkFig03PlannerGoal(b *testing.B) {
	p := plan.Params{Q: 100, QHat: 125, D: 4, PartitionsPerNode: 1}
	load := []float64{150, 150, 160, 180, 210, 250, 290, 330, 360, 390}
	var pl *plan.Plan
	var err error
	for i := 0; i < b.N; i++ {
		pl, err = plan.BestMoves(load, 2, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pl.Cost, "machine-slots")
	printOnce(b, "fig3", func() {
		fmt.Printf("\nFig 3 — planner goal (T=9, start 2 machines, predicted ramp):\n")
		for _, m := range pl.Moves {
			fmt.Printf("  %v\n", m)
		}
		fmt.Printf("  cost %.2f machine-slots, final %d machines\n", pl.Cost, pl.FinalNodes)
	})
}

// ---------------------------------------------------------------------------
// Fig 4: machines allocated and effective capacity during moves 3→5, 3→9,
// 3→14 (one partition per server).

func BenchmarkFig04EffectiveCapacity(b *testing.B) {
	p := plan.Params{Q: 285, QHat: 350, D: 1, PartitionsPerNode: 1}
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, a := range []int{5, 9, 14} {
			for f := 0.0; f <= 1.0; f += 0.05 {
				sink += p.EffCap(3, a, f)
			}
		}
	}
	b.ReportMetric(sink/float64(b.N), "sum-effcap")
	printOnce(b, "fig4", func() {
		fmt.Printf("\nFig 4 — allocation and effective capacity during moves (Q=%.0f):\n", p.Q)
		for _, a := range []int{5, 9, 14} {
			fmt.Printf("  3→%d: move time %.4f·D, avg machines %.2f\n", a, p.MoveTime(3, a)*1, p.AvgMachines(3, a))
			for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
				segs := p.AllocationSegments(3, a)
				mach := segs[len(segs)-1].Machines
				for _, s := range segs {
					if f >= s.FracStart && f < s.FracEnd {
						mach = s.Machines
						break
					}
				}
				fmt.Printf("    f=%.2f machines=%2d eff-cap=%7.0f (cap of allocated: %7.0f)\n",
					f, mach, p.EffCap(3, a, f), p.Cap(mach))
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Table 1: the 11-round schedule of parallel migrations when scaling 3→14.

func BenchmarkTable01MigrationSchedule(b *testing.B) {
	var rounds []plan.Round
	for i := 0; i < b.N; i++ {
		rounds = plan.Schedule(3, 14)
	}
	b.ReportMetric(float64(len(rounds)), "rounds")
	printOnce(b, "table1", func() {
		fmt.Printf("\nTable 1 — schedule of parallel migrations 3→14 (%d rounds):\n", len(rounds))
		for i, r := range rounds {
			fmt.Printf("  round %2d:", i+1)
			for _, t := range r {
				fmt.Printf("  %d→%d", t.From, t.To)
			}
			fmt.Println()
		}
		if err := plan.VerifySchedule(3, 14, rounds); err != nil {
			fmt.Printf("  INVALID: %v\n", err)
		}
	})
}

// ---------------------------------------------------------------------------
// Fig 5: SPAR prediction accuracy on the B2W-like trace (paper: MRE ≈10.4%
// at τ=60 min, decaying gracefully with τ).

func BenchmarkFig05SPARB2W(b *testing.B) {
	var res *experiments.PredictorStudyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.SPARStudyB2W(9, 1, []int{10, 20, 30, 40, 50, 60}, 45)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Points[len(res.Points)-1].MRE*100, "MRE%@60min")
	printOnce(b, "fig5", func() {
		fmt.Printf("\nFig 5 — SPAR accuracy on B2W load (paper: ≈10.4%% at τ=60min):\n")
		for _, p := range res.Points {
			fmt.Printf("  τ=%2dmin MRE %5.2f%%\n", p.Tau, p.MRE*100)
		}
	})
}

// ---------------------------------------------------------------------------
// Fig 6: SPAR on Wikipedia EN/DE hourly page views (paper: DE error <10% up
// to 2h, ≤13% at 6h; EN lower).

func BenchmarkFig06SPARWikipedia(b *testing.B) {
	var en, de *experiments.PredictorStudyResult
	var err error
	for i := 0; i < b.N; i++ {
		en, err = experiments.SPARStudyWikipedia(true, 28, 7, []int{1, 2, 3, 4, 5, 6}, 2)
		if err != nil {
			b.Fatal(err)
		}
		de, err = experiments.SPARStudyWikipedia(false, 28, 7, []int{1, 2, 3, 4, 5, 6}, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(de.Points[5].MRE*100, "DE-MRE%@6h")
	printOnce(b, "fig6", func() {
		fmt.Printf("\nFig 6 — SPAR accuracy on Wikipedia page views:\n")
		fmt.Printf("  %-4s %10s %10s\n", "τ(h)", "EN MRE", "DE MRE")
		for i := range en.Points {
			fmt.Printf("  %-4d %9.2f%% %9.2f%%\n", en.Points[i].Tau, en.Points[i].MRE*100, de.Points[i].MRE*100)
		}
	})
}

// ---------------------------------------------------------------------------
// §5 text: SPAR vs ARMA vs AR at τ=60 min (paper: 10.4% / 12.2% / 12.5%).

func BenchmarkModelComparison(b *testing.B) {
	var points []experiments.PredictorPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.ModelComparison(9, 1, 60, 60)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].MRE*100, "SPAR-MRE%")
	printOnce(b, "cmp", func() {
		fmt.Printf("\n§5 — model comparison at τ=60min (paper: SPAR 10.4%%, ARMA 12.2%%, AR 12.5%%):\n")
		for _, p := range points {
			fmt.Printf("  %-14s MRE %5.2f%%\n", p.Model, p.MRE*100)
		}
	})
}

// ---------------------------------------------------------------------------
// Fig 7 + Fig 8: parameter discovery on this substrate (shared, cached).

var (
	setupOnce sync.Once
	setupVal  *experiments.Setup
	setupErr  error
)

func benchSetup(b *testing.B) *experiments.Setup {
	setupOnce.Do(func() {
		setupVal, setupErr = experiments.DiscoverParameters(benchScale(),
			350*time.Millisecond, 8, []int{1, 2, 4, 16}, 4*time.Millisecond)
	})
	if setupErr != nil {
		b.Fatal(setupErr)
	}
	return setupVal
}

func BenchmarkFig07Saturation(b *testing.B) {
	var setup *experiments.Setup
	for i := 0; i < b.N; i++ {
		setup = benchSetup(b)
	}
	b.ReportMetric(setup.Saturation.Saturation, "saturation-tps")
	printOnce(b, "fig7", func() {
		fmt.Printf("\nFig 7 — single-node throughput ramp:\n")
		for _, p := range setup.Saturation.Points {
			fmt.Printf("  offered %6.0f tps  done %6.0f tps  p50 %6v  p99 %6v\n",
				p.OfferedRate, p.Throughput, p.P50.Round(time.Millisecond), p.P99.Round(time.Millisecond))
		}
		fmt.Printf("  saturation %.0f tps → Q̂=%.0f Q=%.0f (80%%/65%% rules, §4.1)\n",
			setup.Saturation.Saturation, setup.Saturation.QHat, setup.Saturation.Q)
	})
}

func BenchmarkFig08ChunkSizes(b *testing.B) {
	var setup *experiments.Setup
	for i := 0; i < b.N; i++ {
		setup = benchSetup(b)
	}
	b.ReportMetric(setup.Chunks.DSlots, "D-slots")
	printOnce(b, "fig8", func() {
		fmt.Printf("\nFig 8 — migration chunk-size sweep at Q̂ (larger chunks: faster move, worse latency):\n")
		for _, r := range setup.Chunks.Runs {
			fmt.Printf("  %-9s migration %8v  rows %6d  p99 violations %2d/%d windows\n",
				r.Label, r.MigrationTime.Round(time.Millisecond), r.RowsMoved,
				r.Violations.P99Violations, len(r.Windows))
		}
		fmt.Printf("  derived D = %.1f slots (single-thread full-DB move + 10%%), R = %.0f rows/s\n",
			setup.Chunks.DSlots, setup.Chunks.RatePerSec)
	})
}

// ---------------------------------------------------------------------------
// Fig 9 / Fig 10 / Table 2: the four elasticity approaches over replayed
// B2W days (shared, cached).

var (
	approachesOnce sync.Once
	approachesVal  map[experiments.Approach]*experiments.ApproachResult
	approachesCfg  *experiments.ApproachesConfig
	approachesErr  error
)

func benchApproaches(b *testing.B) (map[experiments.Approach]*experiments.ApproachResult, *experiments.ApproachesConfig) {
	approachesOnce.Do(func() {
		setup := benchSetup(b)
		cfg, err := experiments.BuildApproachesConfig(setup, 4, 1, experiments.PredictorSPAR, 3)
		if err != nil {
			approachesErr = err
			return
		}
		approachesCfg = cfg
		approachesVal = make(map[experiments.Approach]*experiments.ApproachResult)
		for _, a := range []experiments.Approach{
			experiments.ApproachStaticPeak,
			experiments.ApproachStaticSmall,
			experiments.ApproachReactive,
			experiments.ApproachPStore,
		} {
			res, err := experiments.RunApproach(*cfg, a)
			if err != nil {
				approachesErr = err
				return
			}
			approachesVal[a] = res
		}
	})
	if approachesErr != nil {
		b.Fatal(approachesErr)
	}
	return approachesVal, approachesCfg
}

func BenchmarkFig09Approaches(b *testing.B) {
	var results map[experiments.Approach]*experiments.ApproachResult
	var cfg *experiments.ApproachesConfig
	for i := 0; i < b.N; i++ {
		results, cfg = benchApproaches(b)
	}
	ps := results[experiments.ApproachPStore]
	b.ReportMetric(ps.AvgMachines, "pstore-avg-machines")
	printOnce(b, "fig9", func() {
		fmt.Printf("\nFig 9 — elasticity approaches over a replayed B2W day (peak=%d, small=%d nodes):\n",
			cfg.PeakNodes, cfg.SmallNodes)
		for _, a := range []experiments.Approach{
			experiments.ApproachStaticPeak, experiments.ApproachStaticSmall,
			experiments.ApproachReactive, experiments.ApproachPStore,
		} {
			r := results[a]
			fmt.Printf("  %-13s requests %6d  windows %3d  machine curve: ", r.Approach, r.Requests, len(r.Windows))
			for _, m := range r.Machines {
				fmt.Printf("%d ", m.Machines)
			}
			fmt.Println()
		}
	})
}

func BenchmarkTable02SLAViolations(b *testing.B) {
	var results map[experiments.Approach]*experiments.ApproachResult
	for i := 0; i < b.N; i++ {
		results, _ = benchApproaches(b)
	}
	re := results[experiments.ApproachReactive]
	ps := results[experiments.ApproachPStore]
	b.ReportMetric(float64(ps.SLA.P99Violations), "pstore-p99-violations")
	b.ReportMetric(float64(re.SLA.P99Violations), "reactive-p99-violations")
	printOnce(b, "table2", func() {
		fmt.Printf("\nTable 2 — SLA violations and machines (paper: reactive ≫ P-Store; P-Store ≈ half of static-peak machines):\n")
		fmt.Printf("  %-13s %6s %6s %6s %14s\n", "approach", "p50", "p95", "p99", "avg machines")
		for _, a := range []experiments.Approach{
			experiments.ApproachStaticPeak, experiments.ApproachStaticSmall,
			experiments.ApproachReactive, experiments.ApproachPStore,
		} {
			r := results[a]
			fmt.Printf("  %-13s %6d %6d %6d %14.2f\n", r.Approach,
				r.SLA.P50Violations, r.SLA.P95Violations, r.SLA.P99Violations, r.AvgMachines)
		}
	})
}

func BenchmarkFig10LatencyCDF(b *testing.B) {
	var results map[experiments.Approach]*experiments.ApproachResult
	for i := 0; i < b.N; i++ {
		results, _ = benchApproaches(b)
	}
	ps := results[experiments.ApproachPStore]
	tail := metrics.TopFractionCDF(metrics.PercentileSeries(ps.Windows, 99), 0.01)
	if len(tail) > 0 {
		b.ReportMetric(tail[len(tail)-1].Value, "pstore-worst-p99-ms")
	}
	printOnce(b, "fig10", func() {
		fmt.Printf("\nFig 10 — top-1%% tails of per-window percentile latencies (ms):\n")
		for _, a := range []experiments.Approach{
			experiments.ApproachStaticPeak, experiments.ApproachStaticSmall,
			experiments.ApproachReactive, experiments.ApproachPStore,
		} {
			r := results[a]
			fmt.Printf("  %-13s", r.Approach)
			for _, pct := range []int{50, 95, 99} {
				cdf := metrics.TopFractionCDF(metrics.PercentileSeries(r.Windows, pct), 0.01)
				if len(cdf) == 0 {
					fmt.Printf("  p%d: n/a", pct)
					continue
				}
				fmt.Printf("  p%d: %.0f..%.0f", pct, cdf[0].Value, cdf[len(cdf)-1].Value)
			}
			fmt.Println()
		}
	})
}

// ---------------------------------------------------------------------------
// Fig 11: unexpected spike, migration fallback at rate R vs R×8 (paper:
// fewer total violation-seconds at R×8).

func BenchmarkFig11SpikeRates(b *testing.B) {
	var runs []experiments.SpikeRun
	for i := 0; i < b.N; i++ {
		setup := benchSetup(b)
		cfg, err := experiments.BuildApproachesConfig(setup, 4, 1, experiments.PredictorOracle, 17)
		if err != nil {
			b.Fatal(err)
		}
		// Rate R paced slowly enough that catching up with the spike takes
		// tens of slots; R×8 recovers in a few.
		cfg.Migration = migration.Options{BucketsPerChunk: 1, ChunkInterval: 25 * time.Millisecond}
		sc := cfg.Scale
		runs, err = experiments.SpikeStudy(*cfg, cfg.ReplayStart+sc.SlotsPerDay/3, sc.SlotsPerDay/6, 3.5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runs[0].SLA.P99Violations), "rateR-p99-violations")
	b.ReportMetric(float64(runs[1].SLA.P99Violations), "rate8R-p99-violations")
	printOnce(b, "fig11", func() {
		fmt.Printf("\nFig 11 — unexpected 2.5× spike, reactive fallback (paper: 16/101/143 at R vs 22/44/51 at R×8):\n")
		for _, r := range runs {
			fmt.Printf("  %-9s p50 %3d  p95 %3d  p99 %3d violation windows, avg machines %.2f\n",
				r.Label, r.SLA.P50Violations, r.SLA.P95Violations, r.SLA.P99Violations, r.AvgMachines)
		}
	})
}

// ---------------------------------------------------------------------------
// Fig 12: capacity-cost trade-off over a multi-week simulation.

func BenchmarkFig12CapacityCost(b *testing.B) {
	cfg := experiments.SimStudyConfig{
		Days: 24, TrainDays: 9, BlackFridayDay: 20,
		QFactors: []float64{0.8, 1.0, 1.25}, Seed: 5,
	}
	var res *experiments.SimStudyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.CapacityCostStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range res.Points {
		if p.Strategy == "P-Store SPAR" && p.QFactor == 1.0 {
			b.ReportMetric(p.InsufficientFrac*100, "pstore-insufficient-%")
		}
	}
	printOnce(b, "fig12", func() {
		fmt.Printf("\nFig 12 — capacity-cost plane (%d simulated days incl. Black Friday):\n", cfg.Days-cfg.TrainDays)
		fmt.Printf("  %-16s %8s %12s %12s %7s\n", "strategy", "Qfactor", "cost(norm)", "insuff %", "moves")
		for _, p := range res.Points {
			fmt.Printf("  %-16s %8.2f %12.3f %12.3f %7d\n",
				p.Strategy, p.QFactor, p.NormalizedCost, p.InsufficientFrac*100, p.Moves)
		}
	})
}

// ---------------------------------------------------------------------------
// Fig 13: effective-capacity trajectories through Black Friday.

func BenchmarkFig13BlackFriday(b *testing.B) {
	cfg := experiments.SimStudyConfig{
		Days: 24, TrainDays: 9, BlackFridayDay: 20,
		QFactors: []float64{1.0}, Seed: 5,
	}
	var states map[string][]sim.SlotState
	var load *timeseries.Series
	var err error
	for i := 0; i < b.N; i++ {
		states, load, err = experiments.TrajectoryStudy(cfg, 19*288, 3*288)
		if err != nil {
			b.Fatal(err)
		}
	}
	insufficient := func(name string) (n int) {
		for i, st := range states[name] {
			if load.At(i) > st.EffCap {
				n++
			}
		}
		return
	}
	b.ReportMetric(float64(insufficient("P-Store SPAR")), "pstore-insufficient-slots")
	b.ReportMetric(float64(insufficient("Simple")), "simple-insufficient-slots")
	printOnce(b, "fig13", func() {
		fmt.Printf("\nFig 13 — Black Friday window, insufficient slots per strategy (paper: Simple breaks, P-Store holds):\n")
		names := make([]string, 0, len(states))
		for name := range states {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-14s %4d insufficient of %d slots\n", name, insufficient(name), load.Len())
		}
	})
}

// ---------------------------------------------------------------------------
// §8.1: workload uniformity over 30 partitions.

func BenchmarkSkewAnalysis(b *testing.B) {
	var res *experiments.SkewResult
	for i := 0; i < b.N; i++ {
		res = experiments.SkewAnalysis(30, 300000, 300000)
	}
	b.ReportMetric(res.AccessStdOverAvg*100, "access-std-%")
	printOnce(b, "skew", func() {
		fmt.Printf("\n§8.1 — uniformity over 30 partitions (paper: accesses max +10.15%% σ 2.62%%; data max +0.185%% σ 0.099%%):\n")
		fmt.Printf("  accesses: max over avg %+.2f%%, σ %.2f%%\n", res.AccessMaxOverAvg*100, res.AccessStdOverAvg*100)
		fmt.Printf("  data:     max over avg %+.2f%%, σ %.2f%%\n", res.DataMaxOverAvg*100, res.DataStdOverAvg*100)
	})
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4).

// BenchmarkAblationEffCap compares the DP plan (which respects the
// effective-capacity model, Eq. 7) against a naive plan that assumes
// capacity jumps instantly once a move completes: the naive plan times its
// scale-out so the move merely ends before cap(B) is exceeded, and reality
// (Eq. 7) underprovisions it during the move.
func BenchmarkAblationEffCap(b *testing.B) {
	p := plan.Params{Q: 100, QHat: 125, D: 30, PartitionsPerNode: 1}
	// Flat 1.5×Q, then a steep ramp to 9×Q between slots 10 and 25.
	load := make([]float64, 31)
	for i := range load {
		switch {
		case i < 10:
			load[i] = 150
		case i < 25:
			load[i] = 150 + 750*float64(i-10)/15
		default:
			load[i] = 900
		}
	}
	countUnder := func(moves []plan.Move) int {
		under := 0
		for _, m := range moves {
			slots := m.End - m.Start
			for j := 1; j <= slots; j++ {
				f := float64(j) / float64(slots)
				if m.Start+j < len(load) && load[m.Start+j] > p.EffCap(m.From, m.To, f)+1e-9 {
					under++
				}
			}
		}
		return under
	}
	var dpUnder, naiveUnder int
	for i := 0; i < b.N; i++ {
		pl, err := plan.BestMoves(load, 2, p)
		if err != nil {
			b.Fatal(err)
		}
		dpUnder = countUnder(pl.Moves)

		// Naive plan: believe that allocated machines provide capacity
		// immediately, so the scale-out only starts when cap(B) is first
		// exceeded — under the real effective-capacity model (Eq. 7) the
		// system is underprovisioned while data is still in flight.
		target := p.RequiredMachines(load[len(load)-1])
		moveSlots := int(math.Ceil(p.MoveTime(2, target)))
		tStar := len(load) - 1
		for t, v := range load {
			if v > p.Cap(2) {
				tStar = t
				break
			}
		}
		naive := []plan.Move{{Start: tStar - 1, End: tStar - 1 + moveSlots, From: 2, To: target}}
		naiveUnder = countUnder(naive)
	}
	b.ReportMetric(float64(dpUnder), "dp-underprovisioned-slots")
	b.ReportMetric(float64(naiveUnder), "naive-underprovisioned-slots")
	printOnce(b, "ablation-effcap", func() {
		fmt.Printf("\nAblation — effective-capacity awareness: DP plan underprovisions %d slots, naive step-capacity plan %d\n",
			dpUnder, naiveUnder)
	})
}

// BenchmarkAblationScaleInConfirmations measures reconfiguration churn at 1
// vs 3 scale-in confirmations on a noisy load (the paper's §6 heuristic).
func BenchmarkAblationScaleInConfirmations(b *testing.B) {
	gen := workload.DefaultB2WConfig()
	gen.Days = 12
	gen.SlotsPerDay = 288
	gen.NoiseFrac = 0.10
	load := workload.GenerateB2W(gen)
	p := plan.Params{Q: gen.PeakLoad / 8, QHat: gen.PeakLoad / 8 * 0.8 / 0.65, D: 15.4, PartitionsPerNode: 6}
	oracle := predict.NewOracle(load)
	if err := oracle.Fit(nil); err != nil {
		b.Fatal(err)
	}
	view := load.Slice(0, load.Len()-20)
	moves := map[int]int{}
	for i := 0; i < b.N; i++ {
		for _, confirm := range []int{1, 3} {
			strat := &policy.PStore{Params: p, Predictor: oracle, Horizon: 18, Inflate: 1.0, Confirmations: confirm}
			res, err := sim.Run(view, 288, 2, strat, p, false)
			if err != nil {
				b.Fatal(err)
			}
			moves[confirm] = res.Moves
		}
	}
	b.ReportMetric(float64(moves[1]), "moves-1-vote")
	b.ReportMetric(float64(moves[3]), "moves-3-votes")
	printOnce(b, "ablation-votes", func() {
		fmt.Printf("\nAblation — scale-in confirmations: %d moves with 1 vote vs %d with 3 votes\n",
			moves[1], moves[3])
	})
}

// BenchmarkAblationMinCostPlanner compares the paper's fewest-final-machines
// Algorithm 1 against the min-cost extension.
func BenchmarkAblationMinCostPlanner(b *testing.B) {
	p := plan.Params{Q: 100, QHat: 125, D: 5, PartitionsPerNode: 1}
	load := []float64{232, 245, 317, 127, 234}
	var paper, minCost float64
	for i := 0; i < b.N; i++ {
		pl, err := plan.BestMoves(load, 3, p)
		if err != nil {
			b.Fatal(err)
		}
		plMin, err := plan.BestMovesMinCost(load, 3, p)
		if err != nil {
			b.Fatal(err)
		}
		paper, minCost = pl.Cost, plMin.Cost
	}
	b.ReportMetric(paper, "paper-cost")
	b.ReportMetric(minCost, "mincost-cost")
}

// ---------------------------------------------------------------------------
// Micro-benchmarks on the core data structures.

func BenchmarkPlannerBestMoves(b *testing.B) {
	p := plan.Params{Q: 100, QHat: 125, D: 15, PartitionsPerNode: 6}
	load := make([]float64, 37)
	for i := range load {
		load[i] = 600 + 500*math.Sin(2*math.Pi*float64(i)/36)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := plan.BestMoves(load, 7, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPARForecast(b *testing.B) {
	cfg := workload.DefaultB2WConfig()
	cfg.Days = 10
	cfg.SlotsPerDay = 288
	load := workload.GenerateB2W(cfg)
	spar := predict.NewSPAR(predict.SPARConfig{Period: 288, NPeriods: 7, MRecent: 30, MaxRows: 4000})
	if err := spar.Fit(load.Slice(0, 9*288)); err != nil {
		b.Fatal(err)
	}
	hist := load.Slice(0, load.Len()-40)
	// Warm the per-τ coefficient cache.
	if _, err := spar.Forecast(hist, 36); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spar.Forecast(hist, 36); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rounds := plan.Schedule(5, 23); len(rounds) == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// Capacity planning: simulate provisioning strategies over weeks of retail
// load, including a Black Friday surge — the §8.3 study in miniature.
//
// The simulator uses the same migration-time and effective-capacity model
// as the live system (plan.Params) and measures each strategy's cost
// (machine-slots, Eq. 1) against the fraction of time it left the database
// underprovisioned.
//
// Run with: go run ./examples/capacityplanning
package main

import (
	"fmt"
	"log"

	"pstore/internal/plan"
	"pstore/internal/policy"
	"pstore/internal/predict"
	"pstore/internal/sim"
	"pstore/internal/workload"
)

func main() {
	// Six weeks of synthetic B2W load at 5-minute slots, Black Friday in
	// week 6; SPAR trains on the first three weeks.
	gen := workload.DefaultB2WConfig()
	gen.Days = 42
	gen.SlotsPerDay = 288
	gen.BlackFridayDay = 38
	load := workload.GenerateB2W(gen)
	trainEnd := 21 * 288

	// Paper-like parameters: the diurnal peak needs ~9 machines at Q and a
	// full single-thread migration takes 77 minutes (15.4 five-minute
	// slots).
	params := plan.Params{
		Q:                 gen.PeakLoad / 9,
		QHat:              gen.PeakLoad / 9 * 0.8 / 0.65,
		D:                 77.0 / 5.0,
		PartitionsPerNode: 6,
	}
	horizon := 2*int(params.D)/params.PartitionsPerNode + 8

	spar := predict.NewSPAR(predict.SPARConfig{Period: 288, NPeriods: 7, MRecent: 30, MaxRows: 4000})
	if err := spar.Fit(load.Slice(0, trainEnd)); err != nil {
		log.Fatal(err)
	}
	oracle := predict.NewOracle(load)
	if err := oracle.Fit(nil); err != nil {
		log.Fatal(err)
	}

	view := load.Slice(0, load.Len()-horizon-1)
	peak := params.RequiredMachines(view.Max())
	typicalPeak := params.RequiredMachines(load.Slice(0, trainEnd).Max())
	n0 := params.RequiredMachines(view.At(trainEnd))

	strategies := []policy.Policy{
		&policy.PStore{Params: params, Predictor: spar, Horizon: horizon, Inflate: 1.15, Label: "P-Store SPAR"},
		&policy.PStore{Params: params, Predictor: oracle, Horizon: horizon, Label: "P-Store Oracle"},
		&policy.Reactive{Params: params},
		policy.Simple{SlotsPerDay: 288, MorningSlot: 72, NightSlot: 276,
			DayMachines: typicalPeak, NightMachines: 2},
		policy.Static{Machines: peak},
		policy.Static{Machines: (peak + 1) / 2},
	}

	fmt.Printf("simulating %d days (%d slots) after training...\n\n", gen.Days-21, view.Len()-trainEnd)
	fmt.Printf("%-16s %14s %12s %14s %7s\n", "strategy", "cost (slots)", "insuff %", "avg machines", "moves")
	for _, s := range strategies {
		res, err := sim.Run(view, trainEnd, n0, s, params, false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %14.0f %12.3f %14.2f %7d\n",
			res.Strategy, res.Cost, res.InsufficientFrac()*100, res.AvgMachines(), res.Moves)
	}
	fmt.Println("\nP-Store approaches the oracle's cost with near-zero underprovisioning;")
	fmt.Println("Simple breaks on Black Friday, Static either overpays or underprovisions.")
}

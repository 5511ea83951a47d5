// Command roiabench regenerates every evaluation artifact of the paper:
// Figures 4–8, the in-text threshold anchors of Section V-A, the
// baseline-strategy comparison, the FPS-vs-RPG profile comparison of
// Section III-C, and an end-to-end client-latency probe (-fig latency)
// reporting input→update RTT percentiles and QoS-deadline violations.
//
// `-fig variability` runs the run-to-run variability harness: each live
// scenario is executed -runs times and reported as mean/p99/p99.9 per-tick
// wall time, between-run CoV, flight-recorder hiccup counts, and the
// model's n_max for the configuration. With -bench-out the result is also
// written as a BENCH-schema JSON snapshot that `tools/benchjson -compare`
// can diff (gating on the p99-ms tail) against a committed baseline.
//
// `-fig cost` runs the hot-path cost harness on the same scenarios: heap
// allocations per tick by pipeline stage, in-tick GC pause tails, framed
// egress bytes per user per tick, and AoI churn quantiles. With -bench-out
// it writes a BENCH-schema snapshot whose allocs_per_op and bytes/user/tick
// figures `tools/benchjson -compare` gates alongside ns_per_op; -cost-out
// dumps the raw per-scenario rows as JSONL for forensics.
//
// Usage:
//
//	roiabench                  # everything, ASCII charts to stdout
//	roiabench -fig 5           # one figure
//	roiabench -fig 8 -csv out  # also write out/fig8.csv
//	roiabench -seed 3          # change the deterministic seed
//	roiabench -fig variability -runs 5 -bench-out BENCH_3.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"roia/internal/experiments"
	"roia/internal/record"
	"roia/internal/stats"
)

var (
	figFlag   = flag.String("fig", "all", "artifact to regenerate: 4,5,6,7,8,anchors,baselines,traffic,heavy,pacing,flash,npcs,csweep,profiles,latency,speedup,variability,cost,recalib,all")
	csvDir    = flag.String("csv", "", "directory to write CSV datasets into (created if missing)")
	seedFlag  = flag.Int64("seed", 1, "seed for the deterministic runs")
	recFlag   = flag.String("record", "", "write the Fig. 8 session time series to this CSV (replayable via cmd/roiareplay)")
	width     = flag.Int("width", 72, "ASCII chart width")
	height    = flag.Int("height", 16, "ASCII chart height")
	runsFlag  = flag.Int("runs", 5, "repetitions per scenario for -fig variability")
	benchOut  = flag.String("bench-out", "", "variability/cost: also write the result as a BENCH-schema JSON snapshot (diffable via tools/benchjson -compare)")
	flightOut = flag.String("flightrec-out", "", "variability: write flight-recorder captures (one JSON object per line) to this path")
	costOut   = flag.String("cost-out", "", "cost: write the per-scenario cost rows (one JSON object per line) to this path")
	deltaFlag = flag.Bool("delta", false, "cost: measure the delta publish path (delta+keyframe stream, incremental AoI) instead of a keyframe every tick")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "roiabench:", err)
		os.Exit(1)
	}
}

func run() error {
	want := func(name string) bool { return *figFlag == "all" || *figFlag == name }
	any := false

	if want("4") {
		any = true
		res, err := experiments.Fig4(*seedFlag)
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Printf("fit quality: worst relative error vs ground truth = %.2f%%\n\n", res.MaxRelErr*100)
	}
	if want("5") {
		any = true
		res := experiments.Fig5()
		emit(res.Table)
		fmt.Printf("l_max = %d (paper: 8); n_max(1) = %d (paper: 235); trigger(1) = %d (paper: 188)\n",
			res.LMax, res.MaxUsers[0], res.Triggers[0])
		fmt.Printf("%-10s", "replicas:")
		for l := range res.MaxUsers {
			fmt.Printf("%7d", l+1)
		}
		fmt.Printf("\n%-10s", "max users:")
		for _, n := range res.MaxUsers {
			fmt.Printf("%7d", n)
		}
		fmt.Printf("\n%-10s", "trigger:")
		for _, n := range res.Triggers {
			fmt.Printf("%7d", n)
		}
		fmt.Print("\n\n")
	}
	if want("6") {
		any = true
		res, err := experiments.Fig6(*seedFlag)
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Printf("t_mig_ini = %s\nt_mig_rcv = %s\n\n", res.IniCurve, res.RcvCurve)
	}
	if want("7") {
		any = true
		res := experiments.Fig7()
		emit(res.Table)
		fmt.Printf("examples: x_ini@35ms=%d (paper worked example: 3)  x_rcv@15ms=%d\n\n",
			res.IniAt[35], res.RcvAt[15])
	}
	if want("8") {
		any = true
		res, err := experiments.Fig8(*seedFlag)
		if err != nil {
			return err
		}
		emit(res.Table)
		s := res.Session
		fmt.Printf("session: violations=%d (paper: none)  peak tick=%.2f ms  peak replicas=%d  migrations=%d  cost=%.2f\n\n",
			s.TotalViolations, s.PeakTickMS, s.PeakReplicas, s.TotalMigrations, s.Cost)
		if *recFlag != "" {
			f, err := os.Create(*recFlag)
			if err != nil {
				return err
			}
			err = record.SaveSession(f, s.Stats)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Printf("session recorded to %s\n\n", *recFlag)
		}
	}
	if want("anchors") {
		any = true
		fmt.Println(experiments.Anchors())
		fmt.Println()
	}
	if want("baselines") {
		any = true
		rows, err := experiments.BaselineComparison(*seedFlag)
		if err != nil {
			return err
		}
		fmt.Println("Baseline comparison on the Fig. 8 workload:")
		fmt.Print(experiments.FormatBaselines(rows))
		fmt.Println()
	}
	if want("traffic") {
		any = true
		res, err := experiments.Traffic(*seedFlag)
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Println(experiments.FormatTraffic(res))
		fmt.Println()
	}
	if want("heavy") {
		any = true
		res, err := experiments.HeavyLoad(*seedFlag)
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Printf("heavy load: substitutions=%d saturation-alerts=%d final classes=%v\n",
			res.Substitutions, res.SaturationAlerts, res.FinalClasses)
		fmt.Printf("            total violations=%d (transient during upgrades), peak tick=%.1f ms, cost=%.2f\n\n",
			res.Session.TotalViolations, res.Session.PeakTickMS, res.Session.Cost)
	}
	if want("flash") {
		any = true
		res, err := experiments.FlashCrowd(*seedFlag)
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Println("Flash crowd (150 → 400 users in one second):")
		fmt.Printf("%-18s %10s %12s %11s %12s %14s\n", "arm", "violations", "peak tick", "peak queue", "queue clear", "admitted peak")
		for _, r := range res.Rows {
			clear := "-"
			if r.QueueClearedAt > 0 {
				clear = fmt.Sprintf("%.0fs", r.QueueClearedAt)
			}
			fmt.Printf("%-18s %10d %10.2fms %11d %12s %14d\n",
				r.Name, r.Violations, r.PeakTickMS, r.PeakQueue, clear, r.AdmittedPeak)
		}
		fmt.Println()
	}
	if want("pacing") {
		any = true
		rows, err := experiments.PacingAblation(*seedFlag)
		if err != nil {
			return err
		}
		fmt.Println("Migration-pacing ablation (the paper's delta over [15]) on the Fig. 8 workload:")
		fmt.Printf("%-26s %10s %12s %10s %12s\n", "arm", "violations", "peak tick", "migrations", "max mig/s")
		for _, r := range rows {
			fmt.Printf("%-26s %10d %10.2fms %10d %12d\n",
				r.Name, r.Violations, r.PeakTickMS, r.Migrations, r.MaxMigrationsPerSecond)
		}
		fmt.Println()
	}
	if want("csweep") {
		any = true
		fmt.Println("Improvement-factor sweep (Eq. 3's economic parameter c, §V-A):")
		fmt.Printf("%8s %7s %16s\n", "c", "l_max", "n_max(l_max)")
		for _, r := range experiments.CSweep() {
			fmt.Printf("%8.2f %7d %16d\n", r.C, r.LMax, r.NMaxLMax)
		}
		fmt.Println()
	}
	if want("npcs") {
		any = true
		fmt.Println("NPC sweep (Eq. 1's m/l·t_npc term):")
		fmt.Printf("%8s %10s %7s\n", "NPCs", "n_max(1)", "l_max")
		for _, r := range experiments.NPCSweep() {
			fmt.Printf("%8d %10d %7d\n", r.NPCs, r.NMax1, r.LMax)
		}
		fmt.Println()
	}
	if want("profiles") {
		any = true
		fmt.Println("Application profiles (Section III-C):")
		fmt.Printf("%-16s %10s %12s %6s %10s\n", "profile", "U [ms]", "n_max(1)", "l_max", "x_ini(200)")
		for _, r := range experiments.ProfileComparison() {
			capacity := fmt.Sprintf("%d", r.NMax1)
			if r.Unbounded {
				capacity = ">" + capacity
			}
			fmt.Printf("%-16s %10.0f %12s %6d %10d\n", r.Name, r.U, capacity, r.LMax, r.XIni200)
		}
		fmt.Println()
	}
	if want("speedup") {
		any = true
		res, err := experiments.Speedup(*seedFlag)
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Printf("Intra-replica parallelism (USL σ=%.3f κ=%.4f; n_ref=%d users):\n",
			res.Truth.Sigma, res.Truth.Kappa, res.NRef)
		fmt.Printf("%8s %9s %12s %10s\n", "workers", "S(w)", "tick [ms]", "n_max(1)")
		for _, r := range res.Rows {
			fmt.Printf("%8d %9.2f %12.2f %10d\n", r.Workers, r.Speedup, r.TickMS, r.NMax)
		}
		fmt.Printf("calibration round-trip: fitted σ=%.3f κ=%.4f (RMSE %.4f)\n\n",
			res.Fitted.Sigma, res.Fitted.Kappa, res.FitRMSE)
	}
	if want("latency") {
		any = true
		res, err := experiments.LatencyProbe(*seedFlag)
		if err != nil {
			return err
		}
		c := res.Client
		fmt.Printf("End-to-end latency probe (%d bots, %d unpaced ticks, %.0f ticks/s throughput):\n",
			res.Users, res.Ticks, res.TicksPerSec)
		fmt.Printf("client input→update RTT (%d samples): p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
			c.Count, c.P50, c.P95, c.P99, c.MaxMS)
		fmt.Printf("deadline %.0fms: %d violations (%.2f%%)\n\n",
			res.DeadlineMS, c.Violations, c.ViolationRate()*100)
	}
	if want("variability") {
		any = true
		res, err := experiments.Variability(*seedFlag, *runsFlag)
		if err != nil {
			return err
		}
		fmt.Printf("Run-to-run variability (%d runs per scenario, %d measured ticks each):\n",
			res.Runs, res.Rows[0].Ticks)
		fmt.Print(experiments.FormatVariability(res))
		fmt.Println()
		if *benchOut != "" {
			if err := writeVariabilitySnapshot(*benchOut, res); err != nil {
				return err
			}
			fmt.Printf("variability snapshot written to %s\n\n", *benchOut)
		}
		if *flightOut != "" {
			n, err := writeVariabilityCaptures(*flightOut, res)
			if err != nil {
				return err
			}
			fmt.Printf("%d flight-recorder capture(s) written to %s\n\n", n, *flightOut)
		}
	}
	if want("cost") {
		any = true
		opts := experiments.CostOpts{}
		if *deltaFlag {
			opts = experiments.CostOpts{DeltaUpdates: true, IncrementalAOI: true}
		}
		res, err := experiments.CostWithOpts(*seedFlag, *runsFlag, opts)
		if err != nil {
			return err
		}
		if *deltaFlag {
			fmt.Println("(delta publish path: proto v5 delta+keyframe stream, incremental AoI)")
		}
		fmt.Printf("Hot-path cost (%d runs per scenario, %d measured ticks each):\n",
			res.Runs, res.Rows[0].Ticks)
		fmt.Print(experiments.FormatCost(res))
		fmt.Println()
		if *benchOut != "" {
			if err := writeCostSnapshot(*benchOut, res); err != nil {
				return err
			}
			fmt.Printf("cost snapshot written to %s\n\n", *benchOut)
		}
		if *costOut != "" {
			if err := writeCostRows(*costOut, res); err != nil {
				return err
			}
			fmt.Printf("cost rows written to %s\n\n", *costOut)
		}
	}
	if want("recalib") {
		any = true
		res, err := experiments.RecalibratePublish(*seedFlag)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatRecalibrate(res))
		fmt.Println()
	}
	if !any {
		return fmt.Errorf("unknown -fig value %q", *figFlag)
	}
	return nil
}

// emit renders a table as an ASCII chart and optionally writes its CSV.
func emit(t *stats.Table) {
	fmt.Print(t.RenderASCII(*width, *height))
	fmt.Println()
	if *csvDir == "" {
		return
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "roiabench: csv:", err)
		return
	}
	name := filepath.Join(*csvDir, slug(t.Title)+".csv")
	f, err := os.Create(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roiabench: csv:", err)
		return
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		fmt.Fprintln(os.Stderr, "roiabench: csv:", err)
	}
}

// slug derives a filename from a figure title ("Fig. 5: ..." → "fig5").
func slug(title string) string {
	out := make([]rune, 0, len(title))
	for _, r := range title {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case r == ':':
			return string(out)
		}
	}
	return string(out)
}

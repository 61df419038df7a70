// Benchmarks: one per table and figure of the paper (regenerating the
// artifact under the Go benchmark harness and reporting the headline
// quantity as a custom metric), plus the ablation studies DESIGN.md
// calls out (BTAC geometry, direction-predictor choice, taken-branch
// penalty).
//
// Run with: go test -bench=. -benchmem
package bioperf5

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"bioperf5/internal/branch"
	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/harness"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/server"
	"bioperf5/internal/trace"
	"bioperf5/internal/workload"
)

// benchCfg is the single-seed configuration used by the benchmark
// harness so each iteration stays around a second.
func benchCfg() harness.Config { return harness.Quick() }

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		runTable(b, id, benchCfg())
	}
}

// runTable regenerates one experiment on a plan of its own.
func runTable(b *testing.B, id string, cfg harness.Config) {
	b.Helper()
	e, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	reps, err := harness.RunPaper(cfg, e)
	if err != nil {
		b.Fatal(err)
	}
	if len(reps[0].Rows) == 0 {
		b.Fatal("empty table")
	}
}

func BenchmarkFig1FunctionBreakout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range workload.Apps() {
			res, err := workload.Run(app, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, share := res.DominantFunction(); share <= 0 {
				b.Fatal("empty profile")
			}
		}
	}
}

// benchFig4 runs the Fig 4 experiment through a fresh scheduler engine
// of the given pool size per iteration, so the benchmark measures raw
// simulation throughput rather than cache hits.
func benchFig4(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		eng := sched.New(sched.Options{Workers: workers})
		cfg := benchCfg()
		cfg.Engine = eng
		runTable(b, "fig4", cfg)
		eng.Close()
	}
}

// BenchmarkFig4Serial vs BenchmarkFig4Parallel quantify the speedup the
// worker pool buys on one experiment: serial pins one worker, parallel
// uses GOMAXPROCS.
func BenchmarkFig4Serial(b *testing.B)   { benchFig4(b, 1) }
func BenchmarkFig4Parallel(b *testing.B) { benchFig4(b, 0) }

func BenchmarkTable1HardwareCounters(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkFig2ClustalwPhases(b *testing.B)     { runExperiment(b, "fig2") }
func BenchmarkFig3Predication(b *testing.B)        { runExperiment(b, "fig3") }
func BenchmarkTable2BranchStats(b *testing.B)      { runExperiment(b, "table2") }
func BenchmarkFig4BTAC(b *testing.B)               { runExperiment(b, "fig4") }
func BenchmarkFig5FXU(b *testing.B)                { runExperiment(b, "fig5") }
func BenchmarkFig6Combined(b *testing.B)           { runExperiment(b, "fig6") }

// BenchmarkKernelSimulation measures simulator throughput per kernel
// and variant, reporting simulated IPC and host MIPS.
func BenchmarkKernelSimulation(b *testing.B) {
	for _, k := range kernels.All() {
		for _, v := range []kernels.Variant{kernels.Branchy, kernels.HandMax, kernels.Combination} {
			k, v := k, v
			b.Run(k.App+"/"+v.String(), func(b *testing.B) {
				var instr, cycles uint64
				for i := 0; i < b.N; i++ {
					run, err := k.NewRun(1, 1)
					if err != nil {
						b.Fatal(err)
					}
					rep, err := kernels.SimulateObserved(k, v, run, cpu.POWER5Baseline(), 1<<30, kernels.Observer{})
					if err != nil {
						b.Fatal(err)
					}
					instr += rep.Counters.Instructions
					cycles += rep.Counters.Cycles
				}
				b.ReportMetric(float64(instr)/float64(cycles), "sim-IPC")
				b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "sim-MIPS")
			})
		}
	}
}

// BenchmarkAblationBTACSize sweeps the BTAC entry count around the
// paper's 8-entry choice.
func BenchmarkAblationBTACSize(b *testing.B) {
	k, err := kernels.ByApp("Clustalw")
	if err != nil {
		b.Fatal(err)
	}
	for _, entries := range []int{2, 4, 8, 16, 64} {
		entries := entries
		b.Run(strconv.Itoa(entries), func(b *testing.B) {
			cfg := cpu.POWER5Baseline()
			cfg.UseBTAC = true
			cfg.BTAC = branch.BTACConfig{Entries: entries, Threshold: 1, MaxScore: 3}
			s := core.Setup{Name: "btac", Variant: kernels.Branchy, CPU: cfg}
			var bubbles, taken uint64
			var ipc float64
			for i := 0; i < b.N; i++ {
				ctr, err := coupledCounters(k, s)
				if err != nil {
					b.Fatal(err)
				}
				bubbles += ctr.TakenBubbles
				taken += ctr.TakenBranches
				ipc = ctr.IPC()
			}
			b.ReportMetric(ipc, "sim-IPC")
			b.ReportMetric(100*float64(bubbles)/float64(taken), "bubble%")
		})
	}
}

// BenchmarkAblationBTACThreshold sweeps the confidence threshold the
// score-based BTAC requires before predicting.
func BenchmarkAblationBTACThreshold(b *testing.B) {
	k, err := kernels.ByApp("Blast")
	if err != nil {
		b.Fatal(err)
	}
	for _, thr := range []int{1, 2, 3} {
		thr := thr
		b.Run(strconv.Itoa(thr), func(b *testing.B) {
			cfg := cpu.POWER5Baseline()
			cfg.UseBTAC = true
			cfg.BTAC = branch.BTACConfig{Entries: 8, Threshold: thr, MaxScore: 3}
			s := core.Setup{Name: "btac", Variant: kernels.Branchy, CPU: cfg}
			var ipc, mis float64
			for i := 0; i < b.N; i++ {
				ctr, err := coupledCounters(k, s)
				if err != nil {
					b.Fatal(err)
				}
				ipc = ctr.IPC()
				mis = 100 * ctr.BTACMispredictRate()
			}
			b.ReportMetric(ipc, "sim-IPC")
			b.ReportMetric(mis, "btac-mispred%")
		})
	}
}

// BenchmarkAblationPredictor compares direction predictors under the
// DP-kernel branch stream.
func BenchmarkAblationPredictor(b *testing.B) {
	k, err := kernels.ByApp("Fasta")
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"static-taken", "bimodal", "gshare", "tournament"} {
		name := name
		b.Run(name, func(b *testing.B) {
			cfg := cpu.POWER5Baseline()
			cfg.Predictor = name
			s := core.Setup{Name: name, Variant: kernels.Branchy, CPU: cfg}
			var ipc, mr float64
			for i := 0; i < b.N; i++ {
				ctr, err := coupledCounters(k, s)
				if err != nil {
					b.Fatal(err)
				}
				ipc = ctr.IPC()
				mr = 100 * ctr.BranchMispredictRate()
			}
			b.ReportMetric(ipc, "sim-IPC")
			b.ReportMetric(mr, "mispred%")
		})
	}
}

// BenchmarkAblationTakenPenalty sweeps the taken-branch fetch bubble
// (0 = ideal front end, 2 = POWER5, 3 = POWER5 with SMT).
func BenchmarkAblationTakenPenalty(b *testing.B) {
	k, err := kernels.ByApp("Clustalw")
	if err != nil {
		b.Fatal(err)
	}
	for _, pen := range []int{0, 2, 3} {
		pen := pen
		b.Run(strconv.Itoa(pen), func(b *testing.B) {
			cfg := cpu.POWER5Baseline()
			cfg.TakenBranchPenalty = pen
			s := core.Setup{Name: "pen", Variant: kernels.Branchy, CPU: cfg}
			var ipc float64
			for i := 0; i < b.N; i++ {
				ctr, err := coupledCounters(k, s)
				if err != nil {
					b.Fatal(err)
				}
				ipc = ctr.IPC()
			}
			b.ReportMetric(ipc, "sim-IPC")
		})
	}
}

// benchServeCell measures the HTTP serving layer end to end — decode,
// canonicalize, admission, engine round trip, encode — by POSTing one
// Clustalw cell repeatedly at an httptest server.  With vary set, each
// request asks for another BTAC size (9..4096, repeating after 4088
// requests), so it misses the result memo and replays the trace the
// priming request captured.
func benchServeCell(b *testing.B, vary bool) {
	b.Helper()
	eng := sched.New(sched.Options{})
	defer eng.Close()
	srv := httptest.NewServer(server.New(server.Options{Engine: eng}))
	defer srv.Close()
	post := func(btac int) {
		body, err := json.Marshal(map[string]any{
			"app": "Clustalw", "variant": "combination", "fxus": 3, "btac_entries": btac,
			"scale": 1, "seeds": []int64{1},
		})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/cells", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		var out server.CellResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if out.Stats.Aggregate.Counters.Cycles == 0 {
			b.Fatal("empty cell result")
		}
	}
	post(8) // prime: the first request pays compile, capture and the memo fill
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		btac := 8
		if vary {
			btac = 9 + i%4088
		}
		post(btac)
	}
}

// BenchmarkServeCellCached is the steady-state serving cost: every
// request after the first is a memoization hit, so this measures the
// HTTP + canonicalization + cache-lookup overhead per request.
func BenchmarkServeCellCached(b *testing.B) { benchServeCell(b, false) }

// BenchmarkServeCellCold gives every request its own BTAC size, so each
// one replays a trace instead of hitting the memo; the gap to
// BenchmarkServeCellCached is the win memoization buys the serving path.
func BenchmarkServeCellCold(b *testing.B) { benchServeCell(b, true) }

// benchSweepTrace runs the FXU x BTAC timing factorial — six
// configurations of one (kernel, variant, seed, scale) cell — under a
// trace policy, with a fresh store per iteration so every iteration
// pays the full capture cost exactly once (auto) or never captures at
// all (off: six coupled functional+timing runs).
func benchSweepTrace(b *testing.B, policy core.TracePolicy) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		store := trace.NewStore(trace.StoreOptions{})
		for _, fxus := range []int{2, 3, 4} {
			for _, entries := range []int{0, 8} {
				cfg := cpu.POWER5Baseline()
				cfg.NumFXU = fxus
				cfg.UseBTAC = entries > 0
				resp, err := core.Simulate(core.Request{
					App: "Fasta", Variant: kernels.Branchy, Seeds: []int64{1},
					Scale: 1, CPU: cfg, Trace: policy, Traces: store,
				})
				if err != nil {
					b.Fatal(err)
				}
				cycles += resp.Aggregate.Counters.Cycles
			}
		}
	}
	if cycles == 0 {
		b.Fatal("factorial simulated nothing")
	}
}

// BenchmarkSweepTraceOff is the capture-per-cell baseline: every cell
// of the factorial runs the coupled functional+timing path.
func BenchmarkSweepTraceOff(b *testing.B) { benchSweepTrace(b, core.TraceOff) }

// BenchmarkSweepTraceAuto is the capture-once/replay-many path: one
// functional capture, six decoupled replays.  The CI benchmark gate
// (scripts/bench_trace.sh) requires this to beat BenchmarkSweepTraceOff.
func BenchmarkSweepTraceAuto(b *testing.B) { benchSweepTrace(b, core.TraceAuto) }

// BenchmarkAblationIfConvertArmLimit sweeps the if-converter's arm-size
// budget on the Blast kernel (whose convertible hammocks include the
// multi-assignment tracking group).
func BenchmarkAblationIfConvertArmLimit(b *testing.B) {
	k, err := kernels.ByApp("Blast")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		prog, st, err := k.Compile(kernels.CompISel)
		if err != nil {
			b.Fatal(err)
		}
		if st.HammocksConverted == 0 {
			b.Fatal("nothing converted")
		}
		_ = prog
	}
}

// coupledCounters simulates seed 1 of k under s on the coupled path
// (TraceOff), so each iteration pays for a full functional execution.
func coupledCounters(k *kernels.Kernel, s core.Setup) (cpu.Counters, error) {
	resp, err := core.Simulate(core.Request{App: k.App, Variant: s.Variant, Seeds: []int64{1}, Scale: 1,
		CPU: s.CPU, Trace: core.TraceOff})
	if err != nil {
		return cpu.Counters{}, err
	}
	return resp.Aggregate.Counters, nil
}

// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V). Each benchmark runs the corresponding experiment driver and reports
// its headline numbers as custom metrics; the full row/series output the
// paper presents is logged with -v. Run with:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// The drivers memoize simulation runs in a shared Runner, so a full -bench=.
// pass costs each (application, scheme, configuration) simulation once.
package lightwsp_test

import (
	"sync"
	"testing"

	"lightwsp/internal/compiler"
	"lightwsp/internal/experiments"
	"lightwsp/internal/workload"
)

var (
	benchRunner     *experiments.Runner
	benchRunnerOnce sync.Once
)

func runner() *experiments.Runner {
	benchRunnerOnce.Do(func() { benchRunner = experiments.NewRunner() })
	return benchRunner
}

// BenchmarkFig7Slowdown reproduces Figure 7: slowdown of Capri, PPA and
// LightWSP over the non-persistent baseline across the 38 applications.
// Paper averages: 50.5% / 8.1% / 9.0%.
func BenchmarkFig7Slowdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(runner())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverallGeo[0], "capri-geo")
		b.ReportMetric(res.OverallGeo[1], "ppa-geo")
		b.ReportMetric(res.OverallGeo[2], "lightwsp-geo")
		b.Log("\n" + res.String())
	}
}

// BenchmarkFig8Efficiency reproduces Figure 8: region-level persistence
// efficiency (Eq. 1), PPA vs LightWSP. Paper: 89.3% vs 99.9%.
func BenchmarkFig8Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(runner())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Avg[0], "ppa-eff-%")
		b.ReportMetric(res.Avg[1], "lightwsp-eff-%")
		b.Log("\n" + res.String())
	}
}

// BenchmarkFig9PSPvsWSP reproduces Figure 9: ideal PSP (no DRAM cache) vs
// LightWSP on memory-intensive applications. Paper: 51.2% vs 3%.
func BenchmarkFig9PSPvsWSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(runner())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Geo[0], "psp-geo")
		b.ReportMetric(res.Geo[1], "lightwsp-geo")
		b.Log("\n" + res.String())
	}
}

// BenchmarkFig10CWSP reproduces Figure 10: cWSP vs LightWSP (NPB excluded).
// Paper: 5.7% vs 8.5%.
func BenchmarkFig10CWSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(runner())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Geo[0], "cwsp-geo")
		b.ReportMetric(res.Geo[1], "lightwsp-geo")
		b.Log("\n" + res.String())
	}
}

// BenchmarkFig11WPQSize reproduces Figure 11: WPQ size sweep 256/128/64.
func BenchmarkFig11WPQSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(runner())
		if err != nil {
			b.Fatal(err)
		}
		for j, name := range res.Configs {
			b.ReportMetric(res.OverallGeo[j], name)
		}
		b.Log("\n" + res.String())
	}
}

// BenchmarkFig12Threshold reproduces Figure 12: store-threshold sweep
// 16/32/64 at a 64-entry WPQ; 32 (half the WPQ) should be best or tied.
func BenchmarkFig12Threshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(runner())
		if err != nil {
			b.Fatal(err)
		}
		for j, name := range res.Configs {
			b.ReportMetric(res.OverallGeo[j], name)
		}
		b.Log("\n" + res.String())
	}
}

// BenchmarkFig13Victim reproduces Figure 13: buffer-snooping victim policy
// sweep (full/half/zero) — the paper finds no significant difference.
func BenchmarkFig13Victim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(runner())
		if err != nil {
			b.Fatal(err)
		}
		for j, name := range res.Configs {
			b.ReportMetric(res.OverallGeo[j], name)
		}
		b.Log("\n" + res.String())
	}
}

// BenchmarkFig14MissRate reproduces Figure 14: L1 miss rates under the
// victim policies and the stale-load mode.
func BenchmarkFig14MissRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(runner())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.StaleLoads), "stale-loads")
		b.Log("\n" + res.String())
	}
}

// BenchmarkFig15Bandwidth reproduces Figure 15: persist-path bandwidth
// sweep 4/2/1 GB/s.
func BenchmarkFig15Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15(runner())
		if err != nil {
			b.Fatal(err)
		}
		for j, name := range res.Configs {
			b.ReportMetric(res.OverallGeo[j], name)
		}
		b.Log("\n" + res.String())
	}
}

// BenchmarkFig16Threads reproduces Figure 16 (§V-F5): thread-count sweep
// 8/16/32/64 on the parallel suites, plus the WPQ overflow rates.
func BenchmarkFig16Threads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig16(runner())
		if err != nil {
			b.Fatal(err)
		}
		for j, name := range res.Sweep.Configs {
			b.ReportMetric(res.Sweep.OverallGeo[j], name)
		}
		b.ReportMetric(res.OverflowPer10K[len(res.OverflowPer10K)-1], "overflow/10k@64T")
		b.Log("\n" + res.String())
	}
}

// BenchmarkFig17CXL reproduces Figure 17 (§V-F6): the CXL device
// configurations of Table III; the paper reports < 16% average overhead.
func BenchmarkFig17CXL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig17(runner())
		if err != nil {
			b.Fatal(err)
		}
		for j, name := range res.Configs {
			b.ReportMetric(res.OverallGeo[j], name)
		}
		b.Log("\n" + res.String())
	}
}

// BenchmarkFig18WPQHit reproduces Figure 18: WPQ load hits per million
// instructions across WPQ sizes. Paper average: 0.039.
func BenchmarkFig18WPQHit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig18(runner())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Overall[len(res.Overall)-1], "hits/Minst@WPQ64")
		b.Log("\n" + res.String())
	}
}

// BenchmarkTable2Conflict reproduces Table II: the buffer-snooping conflict
// rate per suite (per mille).
func BenchmarkTable2Conflict(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(runner())
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, v := range res.Rate {
			if v > worst {
				worst = v
			}
		}
		b.ReportMetric(worst, "worst-permille")
		b.Log("\n" + res.String())
	}
}

// BenchmarkRegionStats reproduces §V-G3: dynamic instruction increase
// (paper: +7.03%), instructions per region (91.33), stores per region
// (11.29).
func BenchmarkRegionStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RegionStats(runner())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.InstrOverheadPct, "instr-overhead-%")
		b.ReportMetric(res.InstrPerRegion, "insts/region")
		b.ReportMetric(res.StoresPerRegion, "stores/region")
		b.Log("\n" + res.String())
	}
}

// BenchmarkHardwareCost reproduces §V-G4: per-core hardware cost.
// Paper: LightWSP 0.5 B, PPA 337 B, Capri 54 KB.
func BenchmarkHardwareCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.HWCost(8, 2)
		b.ReportMetric(res.BytesPerCore["lightwsp"], "lightwsp-B/core")
		b.ReportMetric(res.BytesPerCore["ppa"], "ppa-B/core")
		b.ReportMetric(res.BytesPerCore["capri"], "capri-B/core")
		b.Log("\n" + res.String())
	}
}

// BenchmarkRecoverySweep validates §III-E/§IV-F: power failures injected
// across representative applications, each recovered and verified against
// the failure-free run.
func BenchmarkRecoverySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RecoverySweep(10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Verified), "verified-recoveries")
		b.Log("\n" + res.String())
	}
}

// BenchmarkAblationLRPO quantifies what lazy region-level persist ordering
// buys (§III-B): LightWSP against the naive sfence-per-region variant.
func BenchmarkAblationLRPO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationLRPO(runner())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Geo[0], "naive-sfence-geo")
		b.ReportMetric(res.Geo[1], "lightwsp-geo")
		b.Log("\n" + res.String())
	}
}

// BenchmarkAblationCompiler quantifies the compiler optimizations of §IV-A:
// default vs no-unrolling vs no-combining vs no-pruning, by checkpoint
// counts and run time on a representative subset.
func BenchmarkAblationCompiler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationCompiler(runner())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + res.String())
	}
}

// BenchmarkSingleWorkload is the micro-benchmark: simulate one mid-size
// application under LightWSP once per iteration (a raw simulator-throughput
// number, allocations included).
func BenchmarkSingleWorkload(b *testing.B) {
	p, _ := workload.ByName(workload.CPU2006, "hmmer")
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner() // no memoization: measure the real run
		if _, err := r.Run(p, experiments.LightWSP(), compiler.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

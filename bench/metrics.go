package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metricDef declares one metric of BENCHMARK.json.  Bound is the share
// of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, reported by every
// workload of an untraced run.  One operation is a cell
// (coupled_cells), a sweep (sweep_cold, cluster_sweep), a
// write-reuse-reread round (sweep_disk) or an HTTP request (serve_hot).
// All times are host time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_mips", "Minsn/s", "higher", 0.12},
	{"op_ms_p50", "ms", "lower", 0.15},
	{"op_ms_p90", "ms", "lower", 0.20},
	{"allocs_per_op", "count", "lower", 0.10},
}

// perLayer is reported by every workload of a traced run.  The prefix
// names the module (layer) the number belongs to.
var perLayer = []metricDef{
	{Name: "compiler.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "machine.exec_mips", Unit: "Minsn/s", Better: "higher"},
	{Name: "machine.exec_ns_per_insn", Unit: "ns", Better: "lower"},
	{Name: "machine.exec_allocs_per_insn", Unit: "count", Better: "lower"},
	{Name: "kernels.capture_mips", Unit: "Minsn/s", Better: "higher"},
	{Name: "kernels.capture_ns_per_insn", Unit: "ns", Better: "lower"},
	{Name: "kernels.capture_allocs_per_insn", Unit: "count", Better: "lower"},
	{Name: "cache.annotate_self_ns_per_insn", Unit: "ns", Better: "lower"},
	{Name: "trace.bytes_per_insn", Unit: "B", Better: "lower"},
	{Name: "trace.iter_mips", Unit: "Minsn/s", Better: "higher"},
	{Name: "trace.encode_file_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.decode_file_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.store_put_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.store_get_disk_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.store_get_mem_us", Unit: "us", Better: "lower"},
	{Name: "cpu.replay_mips", Unit: "Minsn/s", Better: "higher"},
	{Name: "cpu.replay_ns_per_insn", Unit: "ns", Better: "lower"},
	{Name: "cpu.replay_allocs_per_insn", Unit: "count", Better: "lower"},
	{Name: "cpu.replay_self_ns_per_insn", Unit: "ns", Better: "lower"},
	{Name: "cpu.coupled_mips", Unit: "Minsn/s", Better: "higher"},
	{Name: "cpu.coupled_ns_per_insn", Unit: "ns", Better: "lower"},
	{Name: "cpu.coupled_allocs_per_insn", Unit: "count", Better: "lower"},
	{Name: "cpu.model_self_ns_per_insn", Unit: "ns", Better: "lower"},
	{Name: "branch.replay_mips.tournament", Unit: "Minsn/s", Better: "higher"},
	{Name: "branch.replay_mips.gshare", Unit: "Minsn/s", Better: "higher"},
	{Name: "branch.replay_mips.tage", Unit: "Minsn/s", Better: "higher"},
	{Name: "branch.replay_mips.perceptron", Unit: "Minsn/s", Better: "higher"},
	{Name: "core.simulate_overhead_us", Unit: "us", Better: "lower"},
	{Name: "core.stage_capture_frac", Unit: "frac", Better: "lower"},
	{Name: "core.stage_replay_frac", Unit: "frac", Better: "lower"},
	{Name: "core.stage_queue_frac", Unit: "frac", Better: "lower"},
	{Name: "core.stage_cache_frac", Unit: "frac", Better: "lower"},
	{Name: "core.disk_stage_cache_frac", Unit: "frac", Better: "lower"},
	{Name: "sched.memo_hit_us", Unit: "us", Better: "lower"},
	{Name: "sched.memo_hit_allocs", Unit: "count", Better: "lower"},
	{Name: "sched.cold_cell_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.disk_hit_us", Unit: "us", Better: "lower"},
	{Name: "sched.hit_rate", Unit: "frac", Better: "higher"},
	{Name: "sched.disk_write_sweep_s", Unit: "s", Better: "lower"},
	{Name: "sched.disk_trace_reuse_s", Unit: "s", Better: "lower"},
	{Name: "sched.disk_result_reuse_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.manifest_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.warm_sweep_us_per_point", Unit: "us", Better: "lower"},
	{Name: "server.cell_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.cell_hit_us_p99", Unit: "us", Better: "lower"},
	{Name: "server.batch_hit_us_per_cell", Unit: "us", Better: "lower"},
	{Name: "server.cell_replay_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cell_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "server.client_self_us", Unit: "us", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "cluster.sweep_s", Unit: "s", Better: "lower"},
	{Name: "cluster.coord_self_s", Unit: "s", Better: "lower"},
	{Name: "cluster.worker_busy_frac", Unit: "frac", Better: "higher"},
	{Name: "cluster.batches", Unit: "count", Better: "lower"},
	{Name: "cluster.stolen", Unit: "count", Better: "lower"},
	{Name: "cluster.redispatched", Unit: "count", Better: "lower"},
	{Name: "cluster.duplicates", Unit: "count", Better: "lower"},
	{Name: "cluster.capture_useful_frac", Unit: "frac", Better: "higher"},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "host.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.instructions", Unit: "count", Better: "lower"},
	{Name: "sim.cycles", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
}

// workloadDef is one entry of BENCHMARK.json's workloads.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a single-workload run prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// pack attaches units to measured values and insists that exactly the
// declared metrics were measured: a name missing from either side is a
// bug in the bench, reported instead of printed.
func pack(defs []metricDef, measured map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := measured[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is declared but was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	for name := range measured {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q was measured but is not declared", name)
		}
	}
	return out, nil
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of floats and three scalars always marshals
	}
	return string(b)
}

func defByName(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package main

import (
	"fmt"
	"strings"
)

// The metric catalog. Every workload reports every metric of a mode:
// the end-to-end ones with --trace 0, the per-layer ones with --trace 1.
// BENCHMARK.json lists the same names; TestCatalogMatchesBenchmarkJSON
// keeps the two in step.

// endToEnd are figures every workload measures with tracing off.
var endToEnd = []string{"setup_s", "heap_mib", "compute_s", "checkpoint_s", "restart_s", "ops_per_s"}

func handlerMetrics(routes ...string) []string {
	var out []string
	for _, r := range routes {
		out = append(out, "serve.handler."+r+".p50_us", "serve.handler."+r+".p99_us")
	}
	return out
}

// perLayer are the traced run's figures, by module.
var perLayer = concat(
	[]string{
		"bitvec.subset_tests_per_s",
		"core.cubemask.pairs_per_s", "core.baseline.pairs_per_s", "core.parallel.pairs_per_s",
		"core.cubemask.compared_frac",
		"core.pairs.full", "core.pairs.partial", "core.pairs.compl", "core.result.bytes_per_pair",
		"core.insert.apply_p50_us", "core.insert.apply_p99_us",
		"snapshot.encode_s", "snapshot.write_s", "snapshot.decode_s", "snapshot.bytes",
		"wal.append_p50_us", "wal.fsyncs_per_insert", "wal.bytes_per_insert",
		"serve.checkpoint_s", "serve.checkpoint.read_stall_ms",
	},
	handlerMetrics("related", "contains", "complements", "obs", "insert"),
	[]string{
		"loopback.overhead_p50_us",
		"gate.self_p50_us", "gate.upstream_p50_us", "gate.upstream_p99_us", "gate.fanout_calls_per_read",
		"gate.hedge.fired_frac", "gate.hedge.won_frac", "gate.partial_frac",
		"replica.bootstrap_s", "replica.lag_p50_ms", "replica.lag_p99_ms", "replica.records_per_poll",
		"client.read_p50_ms", "client.read_p99_ms", "client.write_p50_ms", "client.write_p99_ms",
		"driver.late_p99_ms", "trace.overhead_frac", "trace.path_gap_frac",
	},
)

// idle names, per workload, the per-layer metrics of layers that
// workload never calls; they read 0 there, as a bypassed cache reads
// 0 hits. Every other metric must be measured.
var idle = map[string][]string{
	// No requests: nothing is served, logged, gated or replicated.
	"batch": concat(
		[]string{"core.insert.apply_p50_us", "core.insert.apply_p99_us",
			"wal.append_p50_us", "wal.fsyncs_per_insert", "wal.bytes_per_insert",
			"serve.checkpoint_s", "serve.checkpoint.read_stall_ms"},
		handlerMetrics("related", "contains", "complements", "obs", "insert"),
		[]string{"loopback.overhead_p50_us"},
		gateMetrics, replicaMetrics,
		[]string{"client.read_p50_ms", "client.read_p99_ms", "client.write_p50_ms", "client.write_p99_ms",
			"driver.late_p99_ms", "trace.path_gap_frac"},
	),
	// One primary, no gate, no replica; the baseline and parallel
	// kernels never run.
	"mixed": concat(batchOnly, gateMetrics, replicaMetrics),
	// The gate asks shards only for related, and nothing checkpoints
	// while it serves.
	"fleet": concat(batchOnly,
		[]string{"serve.checkpoint_s", "serve.checkpoint.read_stall_ms"},
		handlerMetrics("contains", "complements", "obs")),
}

var (
	batchOnly      = []string{"bitvec.subset_tests_per_s", "core.baseline.pairs_per_s", "core.parallel.pairs_per_s"}
	gateMetrics    = []string{"gate.self_p50_us", "gate.upstream_p50_us", "gate.upstream_p99_us", "gate.fanout_calls_per_read", "gate.hedge.fired_frac", "gate.hedge.won_frac", "gate.partial_frac"}
	replicaMetrics = []string{"replica.bootstrap_s", "replica.lag_p50_ms", "replica.lag_p99_ms", "replica.records_per_poll"}
)

func concat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// complete fills in the idle metrics of a traced run with 0 and makes
// sure the result holds exactly the catalogued metrics of its mode.
func complete(workload string, trace bool, res *result) error {
	want := endToEnd
	if trace {
		want = perLayer
		for _, name := range idle[workload] {
			if _, ok := res.Metrics[name]; ok {
				return fmt.Errorf("idle metric %s was measured", name)
			}
			res.set(name, 0)
		}
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
	}
	return nil
}

// unitOf derives a metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case name == "heap_mib":
		return "MiB"
	case strings.HasSuffix(name, "_per_s"), strings.HasSuffix(name, "_rps"):
		return "1/s"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	case strings.HasSuffix(name, ".bytes"), strings.HasPrefix(name, "core.result.bytes"), strings.HasPrefix(name, "wal.bytes"):
		return "B"
	}
	return "count"
}

package core

import (
	"runtime"

	"rdfcube/internal/cluster"
)

// This file extends the paper's §6 "distributed and parallel contexts"
// future-work item beyond cubeMasking (parallel.go) to the other two
// published algorithms, selected by Options.Workers > 1:
//
//   - parallelBaselineG shards the §3.1 quadratic pair scan — the reference
//     point of every experiment in Figs. 7–9 — over contiguous row blocks
//     of the occurrence matrix. Each block runs the per-dimension CM_i
//     bit-AND sweep for its outer rows against all later rows.
//   - parallelClusteringG runs the §3.2 intra-cluster baseline scans as
//     independent work items (one cluster each), stolen from a shared
//     channel.
//
// Both reuse the shard pool and direct-emit merge of parallel.go, so they
// emit the serial algorithm's relationship set — equal after Result.Sort,
// in completion order rather than serial order. The parity tests assert
// that against a Workers: 1 run.

// minParallelRows is the input size below which the parallel baseline
// falls back to the serial scan: goroutine + merge overhead dominates on
// tiny inputs, and the serial path already satisfies the parity contract.
const minParallelRows = 64

// rowBlocks splits the outer-row index range [0, n) of an upper-triangle
// pair scan into contiguous blocks with approximately equal pair counts.
// Early rows pair with nearly n partners and late rows with few, so equal
// row counts would starve the workers that drew late blocks; equal pair
// counts keep them busy. The block list only depends on n and the target
// count, so the shard layout — and with it each shard's emission stream,
// which the panic retry re-scans — is deterministic for a given input and
// worker count.
func rowBlocks(n, targetBlocks int) [][2]int {
	if targetBlocks < 1 {
		targetBlocks = 1
	}
	if targetBlocks > n {
		targetBlocks = n
	}
	totalPairs := float64(n) * float64(n-1) / 2
	perBlock := totalPairs / float64(targetBlocks)
	var blocks [][2]int
	lo := 0
	acc := 0.0
	for x := 0; x < n; x++ {
		acc += float64(n - 1 - x)
		if acc >= perBlock || x == n-1 {
			blocks = append(blocks, [2]int{lo, x + 1})
			lo = x + 1
			acc = 0
		}
	}
	if lo < n {
		blocks = append(blocks, [2]int{lo, n})
	}
	return blocks
}

// parallelBaselineG is the §3.1 baseline with the pair scan spread over a
// worker pool: workers claim row blocks from a shared channel
// (work-stealing) and scan them with the same allocation-free inner loop as
// the serial baseline. workers <= 0 means GOMAXPROCS.
//
// Instrumentation matches the serial baseline (obs.pairs.compared totals
// exactly n·(n−1), bitand.tests counts every word-level subset test) plus
// the pool's own counters: parallel.rows, and per-worker
// parallel.worker.<id>.rows throughput.
func parallelBaselineG(s *Space, tasks Tasks, sink Sink, workers int, g *guard) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	om := BuildOccurrenceMatrix(s)
	n := s.N()
	if workers == 1 || n < minParallelRows {
		sink = instrumentSink(s, sink)
		endCompare := s.span(SpanCompare)
		err := baselineOverG(om, nil, tasks, sink, g)
		endCompare()
		return err
	}
	s.gauge(GaugeWorkers, float64(workers))

	// Several blocks per worker so work-stealing can absorb skew from the
	// pair-count balancing being approximate.
	blocks := rowBlocks(n, workers*4)

	endCompare := s.span(SpanCompare)
	sp := shardPool{
		kind:     "rows",
		totalCtr: CtrParallelRows,
		weight:   func(bi int) int64 { return int64(blocks[bi][1] - blocks[bi][0]) },
		scan: func(bi int, local Sink, _ any) error {
			b := blocks[bi]
			return baselineBlockG(om, nil, b[0], b[1], tasks, local, g)
		},
		fingerprint: func(bi int) string {
			b := blocks[bi]
			return shardFingerprint("baseline", bi, b[0], b[1], nil)
		},
	}
	err := runShardPool(s, sp, len(blocks), workers, sink, g)
	endCompare()
	return err
}

// parallelClusteringG is the §3.2 clustering algorithm with the
// intra-cluster baseline runs spread over a worker pool: the cluster
// assignment itself is unchanged (and stays deterministic under a fixed
// seed), then each cluster becomes one work item on a shared channel and
// workers steal them. workers <= 0 means GOMAXPROCS. The cluster-assignment
// phase polls the guard as well.
//
// The method keeps its published recall trade-off: cross-cluster pairs
// are still skipped and still counted under cluster.pairs.skipped. The
// pool adds parallel.clusters and per-worker
// parallel.worker.<id>.clusters counters.
func parallelClusteringG(s *Space, tasks Tasks, sink Sink, opts ClusteringOptions, workers int, g *guard) (cluster.Clustering, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	om := BuildOccurrenceMatrix(s)
	cfg := opts.Config
	if cfg.Poll == nil {
		cfg.Poll = g.pollFunc()
	}
	endAssign := s.span(SpanCluster)
	cl, err := cluster.Cluster(om.Rows, cfg)
	endAssign()
	if err != nil {
		return cluster.Clustering{}, err
	}
	members := cl.Members()
	s.gauge(GaugeClusters, float64(len(members)))
	countSkippedPairs(s, members)

	// Only clusters with at least one pair produce work.
	var work []int
	for ci, m := range members {
		if len(m) >= 2 {
			work = append(work, ci)
		}
	}

	if workers == 1 || len(work) < 2 {
		// Serial path: instrument here; the parallel path leaves the sink
		// raw because the shard merge instruments it.
		instrumented := instrumentSink(s, sink)
		endCompare := s.span(SpanCompare)
		defer endCompare()
		for _, ci := range work {
			if err := baselineOverG(om, members[ci], tasks, instrumented, g); err != nil {
				return cl, err
			}
		}
		return cl, nil
	}
	s.gauge(GaugeWorkers, float64(workers))

	endCompare := s.span(SpanCompare)
	sp := shardPool{
		kind:     "clusters",
		totalCtr: CtrParallelClusters,
		weight:   func(int) int64 { return 1 },
		scan: func(wi int, local Sink, _ any) error {
			return baselineOverG(om, members[work[wi]], tasks, local, g)
		},
		fingerprint: func(wi int) string {
			return shardFingerprint("clustering", wi, 0, 0, members[work[wi]])
		},
	}
	perr := runShardPool(s, sp, len(work), workers, sink, g)
	endCompare()
	return cl, perr
}

// countSkippedPairs reports the ordered pairs clustering will never
// compare — all ordered pairs minus intra-cluster ordered pairs, the
// source of the method's recall loss (Fig. 5(d)).
func countSkippedPairs(s *Space, members [][]int) {
	n := int64(s.N())
	intra := int64(0)
	for _, m := range members {
		intra += int64(len(m)) * int64(len(m)-1)
	}
	s.count(CtrClusterPairsSkipped, n*(n-1)-intra)
}

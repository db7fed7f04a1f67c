package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
)

// batch runs the paper's all-pairs workload — the Table-4 replica at
// n=2000 — through cubed's cold-boot pipeline, over and over for the
// measured time: serial cubeMasking (NewSpace → CubeMaskingCtx → Sort),
// the parallel algorithm at GOMAXPROCS, a checkpoint to real disk, and a
// restart from it. bitvec, core, lattice and snapshot do the work;
// serve, wal and gate do none. One pass is one operation: ops_per_s is
// the inverse of the median pass.

const batchN = 2000

// batchIter is one pass of the pipeline.
type batchIter struct {
	compute, kernel, par, encode, write, load, restart time.Duration
	compared, bytes                                    int64
	heapGrowth                                         float64
	traced                                             bool
}

func runBatch(cfg config) (*result, error) {
	n := batchN / cfg.scale
	res := &result{}
	ctx := context.Background()

	// Set-up is corpus generation (milliseconds); repeated so its median
	// is steady.
	var setups []float64
	var corpus *qb.Corpus
	for i := 0; i < 25; i++ {
		runtime.GC() // every set-up starts from the same heap state
		start := time.Now()
		corpus = gen.RealWorld(gen.RealWorldConfig{TotalObs: n, Seed: cfg.seed})
		setups = append(setups, seconds(time.Since(start)))
	}

	var tracer *Tracer
	if cfg.trace {
		tracer = newTracer()
	}
	rot := snapshot.NewRotator(tracer.FS("snapshot", faultfs.OS{}), filepath.Join(cfg.workDir, "batch.snap"))

	var iters []batchIter
	var first *core.Result
	var last *serve.Server
	stop := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(stop) || (cfg.trace && i < 2); i++ {
		// A traced run alternates untraced and traced passes: the
		// difference between them is the tracing overhead.
		traced := cfg.trace && i%2 == 1
		if tracer != nil {
			tracer.on.Store(traced)
		}
		last = nil
		runtime.GC() // every pass starts from the same heap state
		it, cm, par, restarted, err := batchPass(ctx, corpus, rot, traced)
		if err != nil {
			return nil, err
		}
		res.Attempted += 4
		if err := diffPairs("parallel", cm, par); err != nil && res.checks == nil {
			res.checks = err
		}
		if err := diffPairs("restarted", cm, restarted.Incremental().Res); err != nil && res.checks == nil {
			res.checks = err
		}
		if first == nil {
			// Keep only the pair sets: the check needs nothing else.
			first = &core.Result{FullSet: cm.FullSet, PartialSet: cm.PartialSet, ComplSet: cm.ComplSet}
		} else if err := diffPairs(fmt.Sprintf("pass %d cubeMasking", i), first, cm); err != nil && res.checks == nil {
			res.checks = err
		}
		iters = append(iters, it)
		last = restarted
	}
	heap := heapMiB()
	runtime.KeepAlive(last)
	last = nil

	// The oracle: the serial baseline, run with one worker so its order
	// is the paper's reference order.
	baseCol := obsv.NewCollector()
	s, err := core.NewSpace(corpus)
	if err != nil {
		return nil, err
	}
	ref := core.NewResult()
	start := time.Now()
	if err := core.ComputeCtx(ctx, s, core.AlgorithmBaseline, core.Options{Workers: 1, Obs: baseCol}, ref); err != nil {
		return nil, err
	}
	baseKernel := time.Since(start)
	ref.Sort()
	if err := diffPairs("cubeMasking vs serial baseline", ref, first); err != nil && res.checks == nil {
		res.checks = err
	}

	pick := func(traced bool, f func(batchIter) float64) float64 {
		var xs []float64
		for _, it := range iters {
			if it.traced == traced {
				xs = append(xs, f(it))
			}
		}
		return median(xs)
	}
	pairs := float64(n) * float64(n-1)
	total := func(it batchIter) float64 { return seconds(it.compute + it.par + it.encode + it.write + it.restart) }
	if !cfg.trace {
		res.set("setup_s", median(setups))
		res.set("heap_mib", heap)
		res.set("compute_s", pick(false, func(it batchIter) float64 { return seconds(it.compute) }))
		res.set("checkpoint_s", pick(false, func(it batchIter) float64 { return seconds(it.encode + it.write) }))
		res.set("restart_s", pick(false, func(it batchIter) float64 { return seconds(it.restart) }))
		// A pass is batch's unit of work: one cold boot of the corpus.
		res.set("ops_per_s", 1/pick(false, total))
		return res, nil
	}
	full, partial, compl := first.Counts()
	res.set("bitvec.subset_tests_per_s", float64(baseCol.Counter(core.CtrBitAndTests).Load())/baseKernel.Seconds())
	res.set("core.baseline.pairs_per_s", pairs/baseKernel.Seconds())
	res.set("core.cubemask.pairs_per_s", pick(true, func(it batchIter) float64 { return pairs / it.kernel.Seconds() }))
	res.set("core.parallel.pairs_per_s", pick(true, func(it batchIter) float64 { return pairs / it.par.Seconds() }))
	res.set("core.cubemask.compared_frac", pick(true, func(it batchIter) float64 { return float64(it.compared) / pairs }))
	res.set("core.pairs.full", float64(full))
	res.set("core.pairs.partial", float64(partial))
	res.set("core.pairs.compl", float64(compl))
	res.set("core.result.bytes_per_pair", pick(true, func(it batchIter) float64 {
		return it.heapGrowth / float64(full+partial+compl)
	}))
	res.set("snapshot.encode_s", pick(true, func(it batchIter) float64 { return seconds(it.encode) }))
	res.set("snapshot.write_s", pick(true, func(it batchIter) float64 { return seconds(it.write) }))
	res.set("snapshot.decode_s", pick(true, func(it batchIter) float64 { return seconds(it.load) }))
	res.set("snapshot.bytes", pick(true, func(it batchIter) float64 { return float64(it.bytes) }))
	res.set("trace.overhead_frac", pick(true, total)/pick(false, total)-1)
	res.spans = tracer.Spans()
	return res, nil
}

// batchPass runs the pipeline once. A traced pass also measures the heap
// the compute's result holds, with collections outside the timed calls.
func batchPass(ctx context.Context, corpus *qb.Corpus, rot *snapshot.Rotator, traced bool) (it batchIter, cm, par *core.Result, restarted *serve.Server, err error) {
	it.traced = traced
	var heap0 float64
	if traced {
		heap0 = heapMiB()
	}
	col := obsv.NewCollector()
	start := time.Now()
	s, err := core.NewSpaceObs(corpus, col)
	if err != nil {
		return it, nil, nil, nil, err
	}
	cm = core.NewResult()
	kstart := time.Now()
	l, err := core.CubeMaskingCtx(ctx, s, core.TaskAll, cm, core.CubeMaskOptions{})
	if err != nil {
		return it, nil, nil, nil, err
	}
	it.kernel = time.Since(kstart)
	cm.Sort()
	it.compute = time.Since(start)
	it.compared = col.Counter(core.CtrObsPairsCompared).Load()
	if traced {
		it.heapGrowth = (heapMiB() - heap0) * (1 << 20)
	}

	par = core.NewResult()
	start = time.Now()
	err = core.ComputeCtx(ctx, s, core.AlgorithmParallel, core.Options{Workers: runtime.GOMAXPROCS(0), Obs: obsv.NewCollector()}, par)
	if err != nil {
		return it, nil, nil, nil, err
	}
	par.Sort()
	it.par = time.Since(start)

	start = time.Now()
	data, err := snapshot.New(s, cm, l).Encode()
	if err != nil {
		return it, nil, nil, nil, err
	}
	it.encode = time.Since(start)
	it.bytes = int64(len(data))
	start = time.Now()
	if err := rot.Write(data); err != nil {
		return it, nil, nil, nil, err
	}
	it.write = time.Since(start)
	data = nil

	start = time.Now()
	sn, _, err := rot.Load()
	if err != nil {
		return it, nil, nil, nil, err
	}
	it.load = time.Since(start)
	restarted, err = serve.New(sn, serve.Config{Recorder: obsv.NewCollector()})
	if err != nil {
		return it, nil, nil, nil, err
	}
	it.restart = time.Since(start)
	return it, cm, par, restarted, nil
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/gen"
	"rdfcube/internal/loadgen"
	"rdfcube/internal/qb"
)

// mixed runs one cubed-equivalent primary over loopback HTTP on the
// n=2000 state: Zipf-skewed reads beside ~20% inserts, each insert
// fsynced to the WAL on real disk before its 201; the traced run also
// checkpoints in the middle of each half of its open loops. Readers and
// the single writer share one lock, the WAL and the incremental apply,
// so a read-side gain that costs writes (or the reverse) shows here.

const (
	mixedN    = 2000
	mixedRate = 100.0 // the traced run's open-loop requests per second
	// setupReps boots the stack this many times and reports the median.
	setupReps = 3
	// mixedCheckpoints is how many checkpoints a traced open loop runs,
	// one in the middle of each of as many equal segments.
	mixedCheckpoints = 2
	// warmOps is the untraced run's warm-up: this many plan requests,
	// run to completion in a closed loop before anything is timed.
	warmOps = 1000
	// closedPlanRate sizes the closed-loop plan: requests per second of
	// phase it can feed before running out, at full size (a scaled-down
	// corpus serves about scale times faster).
	closedPlanRate = 1500
)

// phasePlan builds the ops of one phase from its own loadgen plan; the
// phase name keeps insert URIs distinct across phases.
func phasePlan(corpus *qb.Corpus, seed int64, phase string, want int, uris []string, byURI bool, keepInsert func(int) bool) ([]op, error) {
	requests := want + want/2 + 16
	for {
		p, err := loadgen.BuildPlan(loadgen.PlanConfig{Gen: "realworld", N: len(uris), Seed: seed, Mix: "mixed", Requests: requests}, corpus)
		if err != nil {
			return nil, err
		}
		ops, err := buildOps(p, phase, uris, byURI, keepInsert)
		if err != nil {
			return nil, err
		}
		if len(ops) >= want {
			return ops[:want], nil
		}
		requests *= 2
	}
}

func allURIs(c *qb.Corpus) []string {
	var uris []string
	for _, ds := range c.Datasets {
		for _, o := range ds.Observations {
			uris = append(uris, o.URI.Value)
		}
	}
	return uris
}

// servingPlans are the two phases of a serving run. Untraced: a warm-up
// of warmOps requests, then a closed loop of nproc clients for the
// measured time, whose throughput is ops_per_s. Traced: an untraced and
// a traced open loop at a fixed rate, half the measured time each, whose
// difference is the tracing overhead.
type servingPlans struct{ first, second []op }

func buildServingPlans(cfg config, corpus *qb.Corpus, rate float64, byURI bool, keep func(int) bool) (servingPlans, error) {
	if keep == nil {
		keep = func(int) bool { return true }
	}
	uris := allURIs(corpus)
	phases := []string{"warmup", "closed"}
	sizes := []int{warmOps/cfg.scale + 1, int(closedPlanRate*float64(cfg.scale)*cfg.seconds) + 1}
	if cfg.trace {
		phases = []string{"open", "traced"}
		each := int(rate*cfg.seconds/2) + 1
		sizes = []int{each, each}
	}
	var pl servingPlans
	var err error
	if pl.first, err = phasePlan(corpus, cfg.seed, phases[0], sizes[0], uris, byURI, keep); err != nil {
		return pl, err
	}
	pl.second, err = phasePlan(corpus, cfg.seed+1, phases[1], sizes[1], uris, byURI, keep)
	return pl, err
}

func runMixed(cfg config) (*result, error) {
	ctx := context.Background()
	n := mixedN / cfg.scale
	rate := mixedRate / float64(cfg.scale)
	conns := runtime.NumCPU()
	var tracer *Tracer
	if cfg.trace {
		tracer = newTracer()
		tracer.on.Store(false)
	}

	// The request plans are inputs, like the corpus, but not part of a
	// set-up: they are built once, before the first one.
	stage := stages(cfg.logf)
	corpus := gen.RealWorld(gen.RealWorldConfig{TotalObs: n, Seed: cfg.seed})
	plans, err := buildServingPlans(cfg, corpus, rate, false, nil)
	if err != nil {
		return nil, err
	}
	stage("plans")
	var (
		p        *primary
		setups   []float64
		boots    []bootStats
		restarts []restartStats
		dir      string
	)
	for rep := 0; rep < setupReps; rep++ {
		dir = filepath.Join(cfg.workDir, fmt.Sprintf("mixed-%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC() // every set-up starts from the same heap state
		start := time.Now()
		corpus := gen.RealWorld(gen.RealWorldConfig{TotalObs: n, Seed: cfg.seed})
		p, err = bootPrimary(ctx, "primary", dir, corpus, tracer)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(start)))
		boots = append(boots, p.boot)
		if rep < setupReps-1 {
			// Every boot but the one that serves is restarted from its
			// files, as a restarted cubed would: that is restart_s.
			p.close()
			st, err := restartAll([]*primary{p}, dir, 1)
			if err != nil {
				return nil, err
			}
			restarts = append(restarts, st...)
			os.RemoveAll(dir)
		}
	}

	stage("set-ups and restarts")
	d := newDriver(p.url, conns, tracer)
	defer d.close()
	res := &result{digest: digestOps(plans.first, plans.second)}
	var first, second phaseResult
	var heap float64
	if cfg.trace {
		var ckpts, ckptErrs atomic.Int64
		ckpt := func() {
			ckpts.Add(1)
			if err := p.checkpoint(tracer); err != nil {
				ckptErrs.Add(1)
				cfg.logf("checkpoint: %v", err)
			}
		}
		// One checkpoint in the middle of each half of each open loop,
		// as cubed's timer would fire it.
		first = d.open(plans.first, rate, mixedCheckpoints, ckpt)
		tracer.Reset()
		tracer.on.Store(true)
		second = d.open(plans.second, rate, mixedCheckpoints, ckpt)
		tracer.on.Store(false)
		res.Attempted += ckpts.Load()
		res.Failed += ckptErrs.Load()
	} else {
		if first, err = d.closed(plans.first, 0); err != nil {
			return nil, err
		}
		// The heap is measured after the fixed warm-up; after the closed
		// loop it would grow with throughput.
		heap = heapMiB()
		if second, err = d.closed(plans.second, time.Duration(cfg.seconds*float64(time.Second))); err != nil {
			return nil, err
		}
	}
	acked := append(tally(res, first), tally(res, second)...)
	stage("requests")

	// Checks: the live incremental state equals a fresh compute over its
	// own final corpus, and every acknowledged insert is durable: in the
	// newest snapshot generation or in the WAL.
	inc := p.srv.Incremental()
	fresh, err := core.NewSpace(inc.S.Corpus)
	if err != nil {
		return nil, err
	}
	freshRes := core.NewResult()
	core.CubeMasking(fresh, core.TaskAll, freshRes, core.CubeMaskOptions{})
	stage("check: fresh compute")
	res.checks = diffStates("incremental state vs fresh compute", fresh, freshRes, inc.S, inc.Res)
	stage("check: state comparison")
	p.close()
	durable, err := p.durable(dir)
	if err != nil {
		return nil, fmt.Errorf("reading the primary's files: %w", err)
	}
	var ackedURIs []string
	for _, o := range acked {
		ackedURIs = append(ackedURIs, o.uri)
	}
	if err := missingAcked(ackedURIs, durable); err != nil && res.checks == nil {
		res.checks = err
	}
	stage("check: durable inserts")

	if !cfg.trace {
		setBootMetrics(res, setups, boots, restarts, heap)
		res.set("ops_per_s", satRPS(second))
		return res, nil
	}

	// Per-layer metrics of the traced open loop.
	spans := tracer.Spans()
	attachFS(spans, func(s Span) bool {
		return s.Name == "serve.handler.insert" || s.Name == "checkpoint"
	}, func(c Span, tag string) bool {
		isWAL := strings.HasSuffix(tag, ".wal")
		if c.Name == "checkpoint" {
			return strings.HasPrefix(tag, c.Tag+":") && !isWAL
		}
		return tag == c.Tag+":"+c.Tag+".snap.wal"
	})
	res.spans = spans
	tracedAcks := tally(&result{}, second)
	setCoreSnapshotMetrics(res, boots, restarts)
	corpus = gen.RealWorld(gen.RealWorldConfig{TotalObs: n, Seed: cfg.seed})
	if err := setApplyTimes(res, []*qb.Corpus{corpus}, func(op) int { return 0 }, tracedAcks); err != nil {
		return nil, err
	}
	setWALMetrics(res, spans, len(tracedAcks))
	setHandlerMetrics(res, spans, []string{"related", "contains", "complements", "obs", "insert"})
	setCheckpointMetrics(res, spans)
	res.set("loopback.overhead_p50_us", loopbackP50(spans))
	setDriverMetrics(res, first, second, spans)
	return res, nil
}

// setBootMetrics sets the end-to-end metrics of a serving workload's
// set-ups: each boot's set-up time, compute and first checkpoint (summed
// over its primaries), the restarts, and the heap.
func setBootMetrics(res *result, setups []float64, boots []bootStats, restarts []restartStats, heap float64) {
	var compute, ckpt, restart []float64
	for _, b := range boots {
		compute = append(compute, seconds(b.compute))
		ckpt = append(ckpt, seconds(b.encode+b.write))
	}
	for _, r := range restarts {
		restart = append(restart, seconds(r.total))
	}
	res.set("setup_s", median(setups))
	res.set("heap_mib", heap)
	res.set("compute_s", median(compute))
	res.set("checkpoint_s", median(ckpt))
	res.set("restart_s", median(restart))
}

// setCoreSnapshotMetrics sets the kernel and snapshot figures of a
// serving workload's boots and restarts.
func setCoreSnapshotMetrics(res *result, boots []bootStats, restarts []restartStats) {
	var rate, compared, bpp, enc, write, bytes, decode []float64
	for _, b := range boots {
		pairs := float64(b.pairs[0] + b.pairs[1] + b.pairs[2])
		rate = append(rate, b.ordered/b.kernel.Seconds())
		compared = append(compared, float64(b.compared)/b.ordered)
		bpp = append(bpp, b.heapGrowth/pairs)
		enc = append(enc, seconds(b.encode))
		write = append(write, seconds(b.write))
		bytes = append(bytes, float64(b.bytes))
	}
	for _, r := range restarts {
		decode = append(decode, seconds(r.load))
	}
	b := boots[0]
	res.set("core.cubemask.pairs_per_s", median(rate))
	res.set("core.cubemask.compared_frac", median(compared))
	res.set("core.pairs.full", float64(b.pairs[0]))
	res.set("core.pairs.partial", float64(b.pairs[1]))
	res.set("core.pairs.compl", float64(b.pairs[2]))
	res.set("core.result.bytes_per_pair", median(bpp))
	res.set("snapshot.encode_s", median(enc))
	res.set("snapshot.write_s", median(write))
	res.set("snapshot.decode_s", median(decode))
	res.set("snapshot.bytes", median(bytes))
}

// satRPS is the closed loop's throughput: the median, over its whole
// one-second windows, of requests completed without failure. A median
// of windows rather than one total keeps a single collection or host
// hiccup from moving the figure.
func satRPS(ph phaseResult) float64 {
	counts := make([]float64, int(ph.elapsed/time.Second))
	for _, o := range ph.outcomes {
		if w := int(o.done / time.Second); !o.failed && w < len(counts) {
			counts[w]++
		}
	}
	return median(counts)
}

// setApplyTimes replays the traced phase's acknowledged inserts through
// core.Incremental.Insert on fresh copies of the initial states (one per
// corpus; owner picks an insert's), timing each call alone.
func setApplyTimes(res *result, corpora []*qb.Corpus, owner func(op) int, acked []op) error {
	incs := make([]*core.Incremental, len(corpora))
	for i, c := range corpora {
		s, err := core.NewSpace(c)
		if err != nil {
			return err
		}
		base := core.NewResult()
		l := core.CubeMasking(s, core.TaskAll, base, core.CubeMaskOptions{})
		incs[i] = core.NewIncrementalFrom(s, core.TaskAll, base, l)
	}
	var us []float64
	for _, o := range acked {
		i := owner(o)
		obs, err := observationOf(corpora[i], o.body)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := incs[i].Insert(obs); err != nil {
			return fmt.Errorf("replaying insert %s: %w", o.uri, err)
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	res.set("core.insert.apply_p50_us", quantile(us, 0.50))
	res.set("core.insert.apply_p99_us", quantile(us, 0.99))
	return nil
}

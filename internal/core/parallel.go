package core

import (
	"fmt"
	"runtime"
	"sync"
)

// Shared parallel shard engine. All three parallel algorithms follow one
// shape: deterministic shards (row blocks, clusters, outer cubes) are fed
// to a worker pool, each worker records its shard's emissions onto a
// pooled private tape, and the tapes are decoded straight into the
// caller's sink as they fill or finish (direct emit). The sink sees the
// same relationship set as a serial run, delivered in completion order.
// runShardPool adds the robustness contract on top:
//
//   - Cooperative cancellation: workers consult the shared guard before
//     claiming a shard and inside the scan (the kernels charge the guard
//     every guardPairStride pairs). Crucially, workers always DRAIN the
//     feed channel even when tripped — they just stop doing work — so the
//     feeder can never block on an unconsumed send and the merge can
//     never deadlock, no matter when cancellation lands.
//   - Salvage: a canceled run's sink holds the complete shards plus the
//     chunks that in-flight shards had already flushed, every relationship
//     exactly once (DESIGN §9.2).
//   - Panic isolation: a shard whose scan panics under a worker is
//     retried once, serially, on a fresh tape after the pool drains. A
//     second panic fails the run with a ShardPanicError carrying the
//     shard's deterministic input fingerprint. One crashing shard
//     therefore costs a retry, not the process; two prove a reproducible
//     bug and are reported as one.

// shardFault, when non-nil, is called with the shard index at the start of
// every parallel shard scan and again on its serial retry. Tests set it to
// simulate a crashing worker; it stays nil in production.
var shardFault func(shard int)

// shardPool describes one parallel run for runShardPool.
type shardPool struct {
	// kind is the per-worker counter suffix ("rows", "clusters", "cubes").
	kind string
	// totalCtr is the pool-wide claimed-work counter.
	totalCtr string
	// weight is the work units charged to totalCtr per claimed shard.
	weight func(shard int) int64
	// newWorker builds optional per-worker scratch state (may be nil).
	newWorker func() any
	// scan runs one shard onto its private sink; a non-nil error means
	// the guard tripped and the tape holds a partial stream.
	scan func(shard int, local Sink, ws any) error
	// fingerprint identifies a shard's input deterministically for
	// ShardPanicError reports.
	fingerprint func(shard int) string
}

// tapeMerge is the direct-emit merge: completed shard tapes are decoded
// straight into the (already instrumented) caller sink, serialized by the
// mutex. The sink sees shards in COMPLETION order, not serial shard order,
// which is all a relationship SET needs. Exactly-once still holds: a
// shard's tail is flushed only after its scan returned cleanly, and the
// retry of a panicked shard skips the chunks its first attempt flushed.
type tapeMerge struct {
	mu   sync.Mutex
	sink Sink
	rec  DimsRecorder
}

// newTapeMerge instruments the sink once up front and captures its
// optional DimsRecorder extension.
func newTapeMerge(s *Space, sink Sink) *tapeMerge {
	sink = instrumentSink(s, sink)
	rec, _ := sink.(DimsRecorder)
	return &tapeMerge{sink: sink, rec: rec}
}

// flush decodes one completed shard tape into the shared sink and recycles
// the tape. Callers pass ownership; the tape slot must be nilled after.
func (m *tapeMerge) flush(t *tape) { m.flushTail(t, 0) }

// flushTail is flush minus the first skip bytes — the retry path's dedup.
// A re-scanned shard reproduces its deterministic emission stream from the
// start; skip marks how much of it the first attempt already chunk-flushed
// into the sink, and chunk boundaries always fall between whole events.
func (m *tapeMerge) flushTail(t *tape, skip int) {
	if skip > len(t.buf) {
		skip = len(t.buf) // defensive: a non-deterministic scan shrank
	}
	m.mu.Lock()
	if err := decodeTape(t.buf[skip:], m.sink, m.rec); err != nil {
		m.mu.Unlock()
		panic(err)
	}
	m.mu.Unlock()
	releaseTape(t)
}

// flushChunk decodes the tape's current buffer into the shared sink and
// rewinds it, remembering how many bytes the sink has consumed. The tape
// stays borrowed: the scan keeps appending into the rewound buffer.
func (m *tapeMerge) flushChunk(t *tape) {
	if len(t.buf) == 0 {
		return
	}
	m.mu.Lock()
	t.replay(m.sink, m.rec)
	m.mu.Unlock()
	t.flushed += len(t.buf)
	t.buf = t.buf[:0]
}

// tapeChunkSize bounds a direct-emit shard tape between flushes: once the
// private buffer crosses it, the chunk is decoded into the shared sink and
// the buffer rewinds. Peak tape memory per worker is therefore one chunk
// (plus one in-flight event), independent of shard size — the property the
// bench harness's parallel bytes/op cap enforces. A var, not a const, so
// tests can shrink it to force mid-shard flushes.
var tapeChunkSize = 64 << 10

// chunkedTape is the direct-emit local sink: every event lands on the
// private tape, and crossing tapeChunkSize hands the buffer to the merge.
// Flushes happen only after whole appends, so chunk boundaries are event
// boundaries.
type chunkedTape struct {
	t *tape
	m *tapeMerge
}

func (c chunkedTape) after() {
	if len(c.t.buf) >= tapeChunkSize {
		c.m.flushChunk(c.t)
	}
}

func (c chunkedTape) Full(a, b int)  { c.t.Full(a, b); c.after() }
func (c chunkedTape) Compl(a, b int) { c.t.Compl(a, b); c.after() }
func (c chunkedTape) Partial(a, b int, degree float64) {
	c.t.Partial(a, b, degree)
	c.after()
}

// chunkedDimsTape adds the DimsRecorder extension for dims-aware sinks.
type chunkedDimsTape struct{ chunkedTape }

func (c chunkedDimsTape) RecordPartialDims(a, b int, dims []int) {
	dimsTape{c.t}.RecordPartialDims(a, b, dims)
	c.after()
}

// chunked wraps a borrowed tape as the chunk-flushing local sink.
func (m *tapeMerge) chunked(t *tape, wantDims bool) Sink {
	if wantDims {
		return chunkedDimsTape{chunkedTape{t, m}}
	}
	return chunkedTape{t, m}
}

// runShardPool runs the pool, flushing every shard into sink as it fills
// and finishes. It returns nil for a clean, complete run; an error matching
// ErrCanceled when the guard tripped (the sink then holds the complete
// shards plus the chunks in-flight shards had already flushed); or a
// ShardPanicError when a shard panicked again on its serial retry.
func runShardPool(s *Space, sp shardPool, nShards, workers int, sink Sink, g *guard) error {
	_, wantDims := sink.(DimsRecorder)
	merge := newTapeMerge(s, sink)
	// panicked marks the shards whose scan panicked under a worker; flushed
	// holds how many tape bytes each had already chunk-flushed into the
	// sink. Each shard index is claimed by exactly one worker, so the
	// per-index writes are race-free.
	panicked := make([]bool, nShards)
	flushed := make([]int, nShards)

	// runOne scans shard si on a fresh private tape, converting a panic
	// into a retry mark instead of letting it unwind the worker.
	runOne := func(si int, ws any) {
		t, _ := borrowTape(wantDims)
		defer func() {
			if v := recover(); v != nil {
				panicked[si] = true
				flushed[si] = t.flushed
				releaseTape(t)
			}
		}()
		if shardFault != nil {
			shardFault(si)
		}
		if err := sp.scan(si, merge.chunked(t, wantDims), ws); err != nil {
			// Drop an aborted shard's unflushed remainder; chunks flushed
			// before the trip stay in the sink (whole events from the
			// deterministic stream — still a subset of the full run, never
			// a duplicate).
			releaseTape(t)
			return
		}
		merge.flush(t)
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var ws any
			if sp.newWorker != nil {
				ws = sp.newWorker()
			}
			var claimed int64
			for si := range next {
				// Always drain the feed: a tripped guard stops the work,
				// never the channel — the no-deadlock invariant of the
				// merge (the feeder below must not block forever on an
				// unconsumed send).
				if g.isTripped() {
					continue
				}
				claimed += sp.weight(si)
				runOne(si, ws)
			}
			s.count(sp.totalCtr, claimed)
			s.count(fmt.Sprintf("parallel.worker.%02d.%s", id, sp.kind), claimed)
		}(w)
	}
	for si := 0; si < nShards; si++ {
		next <- si
	}
	close(next)
	wg.Wait()

	// Serial retry of panicked shards, in shard order, on fresh tapes: one
	// panic is isolated (a crashing worker must not take down the run);
	// a second, reproduced panic fails the run with the shard's input
	// fingerprint so the bug report pins the failing work item.
	for si := range panicked {
		if !panicked[si] {
			continue
		}
		s.count(CtrShardPanics, 1)
		s.count(CtrShardRetries, 1)
		if err := retryShard(sp, si, flushed[si], wantDims, merge); err != nil {
			return err
		}
	}
	return g.err()
}

// retryShard re-scans one panicked shard serially on a fresh tape. A
// second panic converts into a ShardPanicError; a guard trip during the
// retry drops the shard's unflushed remainder, as in the pool.
func retryShard(sp shardPool, si, skip int, wantDims bool, merge *tapeMerge) (err error) {
	// Chunks the panicked attempt already flushed are in the sink for
	// good; the retry re-scans the whole shard (deterministically) and
	// flushTail skips exactly that many bytes, keeping emission exactly-
	// once. The retry itself runs on a plain, unchunked tape: it is
	// serial and single-shard, so bounding its buffer buys nothing.
	var ws any
	if sp.newWorker != nil {
		ws = sp.newWorker()
	}
	t, local := borrowTape(wantDims)
	defer func() {
		if v := recover(); v != nil {
			err = &ShardPanicError{Shard: si, Fingerprint: sp.fingerprint(si), Value: v}
		}
	}()
	if shardFault != nil {
		shardFault(si)
	}
	if sp.scan(si, local, ws) != nil {
		releaseTape(t)
		return nil
	}
	merge.flushTail(t, skip)
	return nil
}

// parallelCubeMaskingG is AlgorithmParallel: cubeMasking with cube-pair
// comparison spread over a worker pool (the paper's §6 "distributed and
// parallel contexts" item, realized as shared-memory parallelism). Workers
// claim outer cubes, one shard each, and emit through the direct-emit
// merge, so Sink implementations need not be thread-safe.
//
// Instrumentation: workers flush batched counters into the attached
// recorder concurrently (recorders are goroutine-safe; the Collector uses
// atomic counters), so cube-pair and observation-pair totals stay exact
// under parallelism. Each worker additionally reports its outer-cube
// throughput as parallel.worker.<id>.cubes.
func parallelCubeMaskingG(s *Space, tasks Tasks, sink Sink, workers int, g *guard) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	l := BuildLattice(s)
	om := BuildOccurrenceMatrix(s)
	cubes := l.Cubes()
	p := s.NumDims()

	if workers == 1 || len(cubes) < 2 {
		_, err := cubeMaskingG(s, tasks, sink, CubeMaskOptions{}, g)
		return err
	}
	s.gauge(GaugeWorkers, float64(workers))

	endCompare := s.span(SpanCompare)
	sp := shardPool{
		kind:      "cubes",
		totalCtr:  CtrParallelCubes,
		weight:    func(int) int64 { return 1 },
		newWorker: func() any { return borrowCubeScratch(p) },
		scan: func(ai int, local Sink, ws any) error {
			sc := ws.(*cubeScratch)
			a := cubes[ai]
			var considered, pruned, compared, candTests int64
			for _, b := range cubes {
				considered++
				candTests++
				sc.cand = a.Sig.CandidateDims(b.Sig, sc.cand)
				if len(sc.cand) == 0 {
					pruned++
					continue
				}
				allLE := len(sc.cand) == p
				if !tasks.Has(TaskPartial) && !allLE {
					pruned++
					continue
				}
				compared++
				var err error
				if allLE {
					err = comparePair(om, a, b, p, tasks, local, nil, g, sc)
				} else {
					err = comparePair(om, a, b, p, tasks, local, sc.cand, g, sc)
				}
				if err != nil {
					s.count(CtrCubePairsConsidered, considered)
					s.count(CtrCubePairsPruned, pruned)
					s.count(CtrCubePairsCompared, compared)
					s.count(CtrCandidateDimTests, candTests)
					return err
				}
			}
			// Flush per outer cube: keeps live progress moving while
			// bounding recorder traffic to one call set per cube.
			s.count(CtrCubePairsConsidered, considered)
			s.count(CtrCubePairsPruned, pruned)
			s.count(CtrCubePairsCompared, compared)
			s.count(CtrCandidateDimTests, candTests)
			return nil
		},
		fingerprint: func(ai int) string {
			return shardFingerprint("cubemask", ai, 0, 0, cubes[ai].Obs)
		},
	}
	err := runShardPool(s, sp, len(cubes), workers, sink, g)
	endCompare()
	return err
}

package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/leakcheck"
	"rdfcube/internal/obsv"
)

// assertWorkersParity runs alg with Workers ∈ {1, 2, 8} and asserts every
// run's sorted relationship sets, PartialDegree and map_P (the
// RecordPartialDims output) equal the Workers: 1 run's — the set oracle of
// direct emit, whose shards land in completion order. Run under -race this
// also exercises the worker pool's merge and concurrent counter flushes.
func assertWorkersParity(t *testing.T, label string, s *Space, alg Algorithm, opts Options) {
	t.Helper()
	run := func(workers int) *Result {
		t.Helper()
		opts.Workers = workers
		res := NewResult()
		if err := Compute(s, alg, opts, res); err != nil {
			t.Fatalf("%s workers=%d: %v", label, workers, err)
		}
		res.Sort()
		return res
	}
	want := run(1)
	if len(want.PartialDims) == 0 {
		t.Fatalf("%s: degenerate input: the Workers: 1 run recorded no map_P entries", label)
	}
	for _, workers := range []int{1, 2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got.FullSet, want.FullSet) {
			t.Errorf("%s workers=%d: FullSet differs (%d vs %d pairs)", label, workers, len(got.FullSet), len(want.FullSet))
		}
		if !reflect.DeepEqual(got.PartialSet, want.PartialSet) {
			t.Errorf("%s workers=%d: PartialSet differs (%d vs %d pairs)", label, workers, len(got.PartialSet), len(want.PartialSet))
		}
		if !reflect.DeepEqual(got.ComplSet, want.ComplSet) {
			t.Errorf("%s workers=%d: ComplSet differs (%d vs %d pairs)", label, workers, len(got.ComplSet), len(want.ComplSet))
		}
		if !reflect.DeepEqual(got.PartialDegree, want.PartialDegree) {
			t.Errorf("%s workers=%d: PartialDegree differs", label, workers)
		}
		if !reflect.DeepEqual(got.PartialDims, want.PartialDims) {
			t.Errorf("%s workers=%d: PartialDims (map_P) differs", label, workers)
		}
	}
}

// TestParallelReplayParity: AlgorithmParallel emits exactly serial
// cubeMasking's relationships — sets, degrees and map_P — at every worker
// count.
func TestParallelReplayParity(t *testing.T) {
	leakcheck.Check(t)
	s, err := NewSpace(gen.RealWorld(gen.RealWorldConfig{TotalObs: 800, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	assertWorkersParity(t, "parallel", s, AlgorithmParallel, Options{Tasks: TaskAll})
}

// eventSink serializes every emission — kind, pair, degree, recorded
// dimensions — into one byte stream in arrival order. Two algorithm runs
// whose streams compare byte-equal emitted the same relationships in the
// same order with the same metadata: the strongest possible parity.
type eventSink struct{ buf []byte }

func (e *eventSink) rec(kind byte, a, b int, extra ...byte) {
	e.buf = append(e.buf, kind,
		byte(a), byte(a>>8), byte(a>>16),
		byte(b), byte(b>>8), byte(b>>16))
	e.buf = append(e.buf, extra...)
}

func (e *eventSink) Full(a, b int)  { e.rec('F', a, b) }
func (e *eventSink) Compl(a, b int) { e.rec('C', a, b) }
func (e *eventSink) Partial(a, b int, degree float64) {
	bits := math.Float64bits(degree)
	e.rec('P', a, b,
		byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
		byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
}

func (e *eventSink) RecordPartialDims(a, b int, dims []int) {
	e.rec('D', a, b, byte(len(dims)))
	for _, d := range dims {
		e.buf = append(e.buf, byte(d))
	}
}

// records splits the stream into one string per emission record; ok is
// false when the stream is not a whole number of well-formed records.
func (e *eventSink) records() (out []string, ok bool) {
	for i := 0; i < len(e.buf); {
		var n int
		switch e.buf[i] {
		case 'F', 'C':
			n = 7
		case 'P':
			n = 15
		case 'D':
			n = 8 + int(e.buf[i+7])
		default:
			return nil, false
		}
		if i+n > len(e.buf) {
			return nil, false
		}
		out = append(out, string(e.buf[i:i+n]))
		i += n
	}
	return out, true
}

// equalAsSets reports whether two streams carry the same emission records
// regardless of order — the oracle for direct-emit runs, whose shards land
// in completion order. Every record embeds its own pair (and metadata), so
// multiset equality over records is exactly sorted-set equality of the
// emitted relationships.
func (e *eventSink) equalAsSets(other *eventSink) bool {
	a, okA := e.records()
	b, okB := other.records()
	if !okA || !okB || len(a) != len(b) {
		return false
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParityParallelBaselineBitIdentical: the row-block parallel baseline
// emits exactly the serial baseline's relationships at every worker count,
// below and above the serial-fallback floor.
func TestParityParallelBaselineBitIdentical(t *testing.T) {
	leakcheck.Check(t)
	for _, n := range []int{63, 200, 800} {
		s, err := NewSpace(gen.RealWorld(gen.RealWorldConfig{TotalObs: n, Seed: 3}))
		if err != nil {
			t.Fatal(err)
		}
		assertWorkersParity(t, fmt.Sprintf("baseline n=%d", n), s, AlgorithmBaseline, Options{Tasks: TaskAll})
	}
}

// TestParityParallelClusteringBitIdentical: with a pinned seed the cluster
// assignment is deterministic, so the parallel intra-cluster scans emit
// exactly serial Clustering's relationships.
func TestParityParallelClusteringBitIdentical(t *testing.T) {
	leakcheck.Check(t)
	s, err := NewSpace(gen.RealWorld(gen.RealWorldConfig{TotalObs: 800, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Tasks: TaskAll}
	opts.Clustering.Config.Seed = 7
	assertWorkersParity(t, "clustering", s, AlgorithmClustering, opts)
}

// TestParityDirectEmitSetEquivalence: every parallel path, on one shared
// fixture, delivers the Workers: 1 run's relationship sets, degrees and
// map_P at every worker count.
func TestParityDirectEmitSetEquivalence(t *testing.T) {
	leakcheck.Check(t)
	s, err := NewSpace(gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgorithmBaseline, AlgorithmClustering, AlgorithmParallel} {
		opts := Options{Tasks: TaskAll}
		opts.Clustering.Config.Seed = 7
		assertWorkersParity(t, string(alg), s, alg, opts)
	}
}

// TestParityComputeHonorsWorkers guards the fixed bug where
// Options.Workers was silently ignored for baseline and clustering: with
// Workers > 1 the pool must actually engage (observable via the
// parallel.workers gauge and the per-shard counters), and the result must
// match the serial run.
func TestParityComputeHonorsWorkers(t *testing.T) {
	leakcheck.Check(t)
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 600, Seed: 5})
	s, err := NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgorithmBaseline, AlgorithmClustering} {
		serial := NewResult()
		opts := Options{Tasks: TaskAll}
		opts.Clustering.Config.Seed = 7
		if err := Compute(s, alg, opts, serial); err != nil {
			t.Fatal(err)
		}
		serial.Sort()

		col := obsv.NewCollector()
		opts.Workers = 4
		opts.Obs = col
		par := NewResult()
		if err := Compute(s, alg, opts, par); err != nil {
			t.Fatal(err)
		}
		s.SetRecorder(nil)
		par.Sort()
		if !reflect.DeepEqual(serial.FullSet, par.FullSet) ||
			!reflect.DeepEqual(serial.PartialSet, par.PartialSet) ||
			!reflect.DeepEqual(serial.ComplSet, par.ComplSet) {
			t.Errorf("%s: Workers=4 changed the result", alg)
		}
		snap := col.Snapshot()
		var shardCtr string
		switch alg {
		case AlgorithmBaseline:
			shardCtr = CtrParallelRows
		case AlgorithmClustering:
			shardCtr = CtrParallelClusters
		}
		if snap[shardCtr] == 0 {
			t.Errorf("%s: Workers=4 did not engage the pool (%s = 0)", alg, shardCtr)
		}
	}
}

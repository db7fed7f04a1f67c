package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/gate"
	"rdfcube/internal/gen"
	"rdfcube/internal/loadgen"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/replica"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
)

// fleet runs cubegate in front of the three relationship-closed shards
// of gen.ShardWorlds. Each shard is a WAL-backed primary plus a replica
// that bootstraps over /v1/snapshot and tails the WAL, all on loopback.
// Reads (~95%, by observation URI) scatter to every shard and merge;
// inserts (~5%) route to the owning shard. Scatter/gather, merge,
// hedging, loopback and replica apply do the work; the kernels do almost
// none and the write lock is rarely contended, which makes this the
// workload that bypasses kernel and lock-scope changes.

const (
	fleetObsPerDataset = 300
	fleetRate          = 150.0 // open-loop requests per second
	// fleetInsertEvery thins the plan's inserts (20% of the mixed mix)
	// to about 5% of requests: one kept in this many.
	fleetInsertEvery = 6
	// lagPoll is the replica-lag probe's polling interval.
	lagPoll = 100 * time.Microsecond
	// fleetRestartReps is how often the discarded set-up's shards are
	// restarted for restart_s, which is the median of these rounds.
	fleetRestartReps = 3
)

type fleetStack struct {
	primaries []*primary
	followers []*follower
	g         *gate.Gate
	ghs       *http.Server
	url       string
	col       *obsv.Collector
	owner     map[string]int // dataset URI → shard index
	closed    bool
}

func bootFleet(ctx context.Context, dir string, worlds []*gen.ShardWorld, tracer *Tracer) (*fleetStack, error) {
	f := &fleetStack{col: obsv.NewCollector(), owner: map[string]int{}}
	var shards []gate.ShardConfig
	for i, w := range worlds {
		p, err := bootPrimary(ctx, w.Name, dir, w.Corpus, tracer)
		if err != nil {
			f.close()
			return nil, err
		}
		f.primaries = append(f.primaries, p)
		fl, err := bootFollower(p, dir, tracer)
		if err != nil {
			f.close()
			return nil, err
		}
		f.followers = append(f.followers, fl)
		shards = append(shards, gate.ShardConfig{Name: w.Name, Primary: p.url, Replica: fl.url, Datasets: w.Datasets})
		for _, ds := range w.Datasets {
			f.owner[ds] = i
		}
	}
	var err error
	f.g, f.ghs, f.url, err = bootGate(shards, f.col, tracer)
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close stops the stack; closing it again does nothing.
func (f *fleetStack) close() {
	if f.closed {
		return
	}
	f.closed = true
	if f.ghs != nil {
		f.ghs.Close()
		f.g.Close()
	}
	for _, fl := range f.followers {
		fl.close()
	}
	for _, p := range f.primaries {
		p.close()
	}
}

// counter sums a counter over the collectors.
func counter(name string, cols ...*obsv.Collector) int64 {
	var n int64
	for _, c := range cols {
		n += c.Counter(name).Load()
	}
	return n
}

func (f *fleetStack) followerCols() []*obsv.Collector {
	var cols []*obsv.Collector
	for _, fl := range f.followers {
		cols = append(cols, fl.col)
	}
	return cols
}

// lagProbe measures, for each insert the gate acknowledged, how long
// until the owning shard's replica serves it. It asks the replica's
// handler in process, so the probe opens no connection of its own.
type lagProbe struct {
	reqs chan lagReq
	done chan struct{}
	lags []float64 // ms
	err  error
}

type lagReq struct {
	uri string
	at  time.Time
	h   http.Handler
}

func newLagProbe(inserts int) *lagProbe {
	lp := &lagProbe{reqs: make(chan lagReq, inserts), done: make(chan struct{})} // sized to the sends
	go func() {
		defer close(lp.done)
		for r := range lp.reqs {
			path := "/v1/related?obs=" + url.QueryEscape(r.uri)
			for {
				rec := httptest.NewRecorder()
				r.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code == http.StatusOK {
					lp.lags = append(lp.lags, ms(time.Since(r.at)))
					break
				}
				if time.Since(r.at) > 10*time.Second {
					if lp.err == nil {
						lp.err = fmt.Errorf("replica never served acknowledged insert %s (last answer %d)", r.uri, rec.Code)
					}
					break
				}
				time.Sleep(lagPoll)
			}
		}
	}()
	return lp
}

// wait stops the probe once every queued insert is visible.
func (lp *lagProbe) wait() {
	close(lp.reqs)
	<-lp.done
}

// fleetPhase runs one phase with a lag probe attached.
func fleetPhase(f *fleetStack, d *driver, ops []op, run func() (phaseResult, error)) (phaseResult, *lagProbe, error) {
	inserts := 0
	for _, o := range ops {
		if o.isWrite() {
			inserts++
		}
	}
	lp := newLagProbe(inserts)
	d.onAck = func(o op, at time.Time) {
		lp.reqs <- lagReq{uri: o.uri, at: at, h: f.followers[f.owner[datasetOf(o)]].f.Handler()}
	}
	ph, err := run()
	lp.wait()
	return ph, lp, err
}

func runFleet(cfg config) (*result, error) {
	ctx := context.Background()
	per := fleetObsPerDataset / cfg.scale
	rate := fleetRate / float64(cfg.scale)
	conns := runtime.NumCPU()
	keep := func(k int) bool { return k%fleetInsertEvery == 0 }
	var tracer *Tracer
	if cfg.trace {
		tracer = newTracer()
		tracer.on.Store(false)
	}

	stage := stages(cfg.logf)
	_, combined := gen.ShardWorlds(gen.ShardWorldsConfig{Seed: cfg.seed, ObsPerDataset: per})
	plans, err := buildServingPlans(cfg, combined, rate, true, keep)
	if err != nil {
		return nil, err
	}
	stage("plans")
	var (
		f        *fleetStack
		setups   []float64
		boots    []bootStats
		restarts []restartStats
		dir      string
	)
	for rep := 0; rep < setupReps; rep++ {
		dir = filepath.Join(cfg.workDir, fmt.Sprintf("fleet-%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC() // every set-up starts from the same heap state
		start := time.Now()
		worlds, _ := gen.ShardWorlds(gen.ShardWorldsConfig{Seed: cfg.seed, ObsPerDataset: per})
		f, err = bootFleet(ctx, dir, worlds, tracer)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(start)))
		boots = append(boots, sumBoots(f.primaries))
		if rep < setupReps-1 {
			// Every fleet but the one that serves has its primaries
			// restarted from their files: that is restart_s.
			f.close()
			st, err := restartAll(f.primaries, dir, fleetRestartReps)
			if err != nil {
				return nil, err
			}
			restarts = append(restarts, st...)
			os.RemoveAll(dir)
		}
	}
	defer f.close()
	stage("set-ups and restarts")

	d := newDriver(f.url, conns, tracer)
	defer d.close()
	res := &result{digest: digestOps(plans.first, plans.second)}
	var (
		first, second       phaseResult
		lagFirst, lagSecond *lagProbe
		heap                float64
		gate0               map[string]int64
		recs0, polls0       int64
	)
	snapCounters := func() {
		gate0 = f.col.Snapshot()
		recs0 = counter(replica.CtrRecords, f.followerCols()...)
		polls0 = counter(replica.CtrPolls, f.followerCols()...)
	}
	if cfg.trace {
		first, lagFirst, err = fleetPhase(f, d, plans.first, func() (phaseResult, error) {
			return d.open(plans.first, rate, 1, nil), nil
		})
		if err != nil {
			return nil, err
		}
		snapCounters()
		tracer.Reset()
		tracer.on.Store(true)
		second, lagSecond, err = fleetPhase(f, d, plans.second, func() (phaseResult, error) {
			return d.open(plans.second, rate, 1, nil), nil
		})
		tracer.on.Store(false)
	} else {
		first, lagFirst, err = fleetPhase(f, d, plans.first, func() (phaseResult, error) {
			return d.closed(plans.first, 0)
		})
		if err != nil {
			return nil, err
		}
		heap = heapMiB() // after the fixed warm-up, as in mixed
		second, lagSecond, err = fleetPhase(f, d, plans.second, func() (phaseResult, error) {
			return d.closed(plans.second, time.Duration(cfg.seconds*float64(time.Second)))
		})
	}
	if err != nil {
		return nil, err
	}
	acked := append(tally(res, first), tally(res, second)...)
	stage("requests")

	res.checks = lagFirst.err
	if res.checks == nil {
		res.checks = lagSecond.err
	}
	if err := checkFleet(cfg.seed, per, f.url, acked); err != nil && res.checks == nil {
		res.checks = err
	}
	stage("checks")

	if !cfg.trace {
		setBootMetrics(res, setups, boots, restarts, heap)
		res.set("ops_per_s", satRPS(second))
		return res, nil
	}

	spans := tracer.Spans()
	attachFS(spans, func(s Span) bool { return s.Name == "serve.handler.insert" }, func(c Span, tag string) bool {
		return tag == c.Tag+":"+c.Tag+".snap.wal"
	})
	res.spans = spans
	tracedAcks := tally(&result{}, second)
	setCoreSnapshotMetrics(res, boots, restarts)
	// Inserts grew the served corpora; the replay starts from new copies.
	fresh, _ := gen.ShardWorlds(gen.ShardWorldsConfig{Seed: cfg.seed, ObsPerDataset: per})
	var corpora []*qb.Corpus
	for _, w := range fresh {
		corpora = append(corpora, w.Corpus)
	}
	if err := setApplyTimes(res, corpora, func(o op) int { return f.owner[datasetOf(o)] }, tracedAcks); err != nil {
		return nil, err
	}
	setWALMetrics(res, spans, len(tracedAcks))
	setHandlerMetrics(res, spans, []string{"related", "insert"})
	res.set("loopback.overhead_p50_us", loopbackP50(spans))
	setGateMetrics(res, spans, gate0, f.col.Snapshot(), len(f.primaries))
	var boot []float64
	for _, c := range f.followerCols() {
		if h, ok := c.HistSnapshot(replica.HistBootUS); ok {
			boot = append(boot, h.Mean()/1e6)
		}
	}
	res.set("replica.bootstrap_s", median(boot))
	res.set("replica.lag_p50_ms", quantile(lagSecond.lags, 0.50))
	res.set("replica.lag_p99_ms", quantile(lagSecond.lags, 0.99))
	res.set("replica.records_per_poll", float64(counter(replica.CtrRecords, f.followerCols()...)-recs0)/
		float64(max(1, counter(replica.CtrPolls, f.followerCols()...)-polls0)))
	setDriverMetrics(res, first, second, spans)
	return res, nil
}

// datasetOf is the dataset an insert's body names.
func datasetOf(o op) string {
	var in insertBody
	_ = json.Unmarshal(o.body, &in)
	return in.Dataset
}

// setGateMetrics: the gate's own time per read (its span minus its
// longest upstream call), upstream call latency, fan-out, and the hedge
// and partial-answer rates over the traced phase.
func setGateMetrics(res *result, spans []Span, before, after map[string]int64, shards int) {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Name == "gate.upstream" && s.Req != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var self, up []float64
	reads, calls := 0, 0
	for _, s := range spans {
		switch s.Name {
		case "gate.upstream":
			if s.Req != 0 {
				up = append(up, usOf(s))
			}
		case "gate.handler.related", "gate.handler.contains", "gate.handler.complements":
			reads++
			longest := int64(0)
			for _, c := range kids[s.ID] {
				longest = max(longest, c.dur())
			}
			calls += len(kids[s.ID])
			self = append(self, float64(s.dur()-longest)/1e3)
		}
	}
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	res.set("gate.self_p50_us", quantile(self, 0.50))
	res.set("gate.upstream_p50_us", quantile(up, 0.50))
	res.set("gate.upstream_p99_us", quantile(up, 0.99))
	res.set("gate.fanout_calls_per_read", float64(calls)/float64(max(reads, 1)))
	res.set("gate.hedge.fired_frac", delta(gate.CtrHedgeFired)/float64(max(reads*shards, 1)))
	won := 0.0
	if fired := delta(gate.CtrHedgeFired); fired > 0 {
		won = delta(gate.CtrHedgeWon) / fired
	}
	res.set("gate.hedge.won_frac", won)
	res.set("gate.partial_frac", delta(gate.CtrPartial)/float64(max(reads, 1)))
}

// checkFleet compares sampled gate answers, byte for byte, with an
// unsharded oracle: the combined ShardWorlds corpus computed from
// scratch, the acknowledged inserts applied, behind a one-shard gate.
func checkFleet(seed int64, per int, gateURL string, acked []op) error {
	_, combined := gen.ShardWorlds(gen.ShardWorldsConfig{Seed: seed, ObsPerDataset: per})
	s, err := core.NewSpace(combined)
	if err != nil {
		return err
	}
	res := core.NewResult()
	l := core.CubeMasking(s, core.TaskAll, res, core.CubeMaskOptions{})
	res.Sort()
	srv, err := serve.New(snapshot.New(s, res, l), serve.Config{})
	if err != nil {
		return err
	}
	h := srv.Handler()
	for _, o := range acked {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observations", bytes.NewReader(o.body)))
		if rec.Code != http.StatusCreated {
			return fmt.Errorf("oracle refused acknowledged insert %s: %d %s", o.uri, rec.Code, rec.Body)
		}
	}
	var datasets []string
	for _, ds := range combined.Datasets {
		datasets = append(datasets, ds.URI.Value)
	}
	og, err := gate.New(gate.Config{
		Shards:        []gate.ShardConfig{{Name: "all", Primary: "http://oracle", Datasets: datasets}},
		Transport:     loadgen.HandlerTransport{H: h},
		ProbeInterval: -1,
	})
	if err != nil {
		return err
	}
	defer og.Close()
	oh := og.Handler()

	uris := allURIs(combined)
	rng := rand.New(rand.NewSource(seed))
	var sample []string
	for i := 0; i < 40; i++ {
		sample = append(sample, uris[rng.Intn(len(uris))])
	}
	for i := 0; i < len(acked) && i < 20; i++ {
		sample = append(sample, acked[i].uri)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for _, uri := range sample {
		for _, route := range []string{"related", "contains", "complements"} {
			path := "/v1/" + route + "?obs=" + url.QueryEscape(uri)
			resp, err := client.Get(gateURL + path)
			if err != nil {
				return fmt.Errorf("GET %s from the gate: %w", path, err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return fmt.Errorf("GET %s from the gate: %w", path, err)
			}
			rec := httptest.NewRecorder()
			oh.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if err := sameAnswer(path, got, rec.Body.Bytes()); err != nil {
				return err
			}
		}
	}
	return nil
}

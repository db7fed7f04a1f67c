package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gate"
	"rdfcube/internal/obsv"
	"rdfcube/internal/qb"
	"rdfcube/internal/replica"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wal"
)

// The stack, assembled the way cmd/cubed and cmd/cubegate assemble it
// with their default flags, from the same public constructors. The
// tracer's wrappers sit at the seams: around each handler, inside each
// HTTP client, and under each file system. With a nil tracer they are
// the identity.

// listen serves h on an ephemeral loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	return hs, "http://" + ln.Addr().String(), nil
}

// primary is one cubed: a WAL-backed server whose snapshot generations
// rotate on real disk.
type primary struct {
	name string
	srv  *serve.Server
	rot  *snapshot.Rotator
	wlog *wal.Log
	hs   *http.Server
	url  string
	col  *obsv.Collector
	n    int
	boot bootStats
}

// bootStats times the steps of one cold boot that the end-to-end and
// per-layer metrics name.
type bootStats struct {
	ordered    float64       // ordered observation pairs, n(n−1)
	compute    time.Duration // NewSpace → CubeMaskingCtx → Sort
	kernel     time.Duration // CubeMaskingCtx alone
	encode     time.Duration // the first generation's Snapshot.Encode
	write      time.Duration // its Rotator.Write
	bytes      int64         // its encoded size
	compared   int64         // obs.pairs.compared of the kernel
	pairs      [3]int        // full, partial, compl
	heapGrowth float64       // bytes the result holds; traced boots only
}

// bootPrimary is cubed's cold boot with nothing on disk: compile,
// cubeMasking, sort, commit the first generation, open the WAL, serve.
func bootPrimary(ctx context.Context, name, dir string, corpus *qb.Corpus, tracer *Tracer) (*primary, error) {
	p := &primary{name: name, col: obsv.NewCollector()}
	disk := tracer.FS(name, faultfs.OS{})
	base := filepath.Join(dir, name+".snap")
	p.rot = snapshot.NewRotator(disk, base)

	var heap0 float64
	if tracer != nil {
		heap0 = heapMiB()
	}
	start := time.Now()
	s, err := core.NewSpaceObs(corpus, p.col)
	if err != nil {
		return nil, err
	}
	res := core.NewResult()
	kstart := time.Now()
	l, err := core.CubeMaskingCtx(ctx, s, core.TaskAll, res, core.CubeMaskOptions{})
	if err != nil {
		return nil, err
	}
	p.boot.kernel = time.Since(kstart)
	res.Sort()
	p.boot.compute = time.Since(start)
	p.boot.compared = p.col.Counter(core.CtrObsPairsCompared).Load()
	p.n = s.N()
	p.boot.ordered = float64(p.n) * float64(p.n-1)
	full, partial, compl := res.Counts()
	p.boot.pairs = [3]int{full, partial, compl}
	if tracer != nil {
		p.boot.heapGrowth = (heapMiB() - heap0) * (1 << 20)
	}
	sn := snapshot.New(s, res, l)
	start = time.Now()
	data, err := sn.Encode()
	if err != nil {
		return nil, err
	}
	p.boot.encode = time.Since(start)
	p.boot.bytes = int64(len(data))
	start = time.Now()
	if err := p.rot.Write(data); err != nil {
		return nil, err
	}
	p.boot.write = time.Since(start)
	data = nil

	p.wlog, _, err = wal.Open(disk, base+".wal")
	if err != nil {
		return nil, err
	}
	p.srv, err = serve.New(sn, serve.Config{
		Tasks:            core.TaskAll,
		Recorder:         p.col,
		RequestTimeout:   5 * time.Second,
		MaxInFlight:      128,
		WAL:              p.wlog,
		SnapshotGen:      func() uint64 { g, _ := p.rot.CurrentGen(); return g },
		CheckpointNow:    func() error { return p.srv.CheckpointWith(p.rot.Write) },
		Algorithm:        core.AlgorithmCubeMasking,
		RecomputeTimeout: 60 * time.Second,
		TraceRing:        128,
	})
	if err != nil {
		p.wlog.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", p.srv.Handler())
	mux.Handle("/metrics", obsv.Handler(p.col))
	p.hs, p.url, err = listen(tracer.Handler("serve.handler", name, mux))
	if err != nil {
		p.wlog.Close()
		return nil, err
	}
	return p, nil
}

// checkpoint is one cubed timer checkpoint.
func (p *primary) checkpoint(tracer *Tracer) error {
	if tracer.active() {
		sp := Span{ID: tracer.newID(), Name: "checkpoint", Tag: p.name, Start: tracer.now()}
		defer func() { sp.End = tracer.now(); tracer.record(sp) }()
	}
	return p.srv.CheckpointWith(p.rot.Write)
}

func (p *primary) close() {
	p.srv.BeginShutdown()
	p.hs.Close()
	p.wlog.Close()
}

// sumBoots adds up the boots of several primaries: one fleet boot.
func sumBoots(ps []*primary) bootStats {
	var t bootStats
	for _, p := range ps {
		b := p.boot
		t.ordered += b.ordered
		t.compute += b.compute
		t.kernel += b.kernel
		t.encode += b.encode
		t.write += b.write
		t.bytes += b.bytes
		t.compared += b.compared
		for i := range t.pairs {
			t.pairs[i] += b.pairs[i]
		}
		t.heapGrowth += b.heapGrowth
	}
	return t
}

// restartAll restarts each of the closed primaries reps times; each
// entry of the result sums one round over the primaries.
func restartAll(ps []*primary, dir string, reps int) ([]restartStats, error) {
	var out []restartStats
	for r := 0; r < reps; r++ {
		var t restartStats
		for _, p := range ps {
			runtime.GC() // each restart starts from the same heap state
			st, err := p.restart(dir)
			if err != nil {
				return nil, fmt.Errorf("restarting %s from its files: %w", p.name, err)
			}
			t.load += st.load
			t.total += st.total
		}
		out = append(out, t)
	}
	return out, nil
}

// durable returns the observation URIs a closed primary's files hold:
// those of the newest snapshot generation and those its WAL logs on top
// (checkpoints truncate the WAL, so the log alone holds only the tail).
func (p *primary) durable(dir string) (map[string]bool, error) {
	base := filepath.Join(dir, p.name+".snap")
	sn, _, err := snapshot.NewRotator(faultfs.OS{}, base).Load()
	if err != nil {
		return nil, err
	}
	have := urisOf(sn.Space)
	wlog, recs, err := wal.Open(faultfs.OS{}, base+".wal")
	if err != nil {
		return nil, err
	}
	wlog.Close()
	for _, r := range recs {
		have[r.URI.Value] = true
	}
	return have, nil
}

// restartStats times one restart.
type restartStats struct {
	load  time.Duration // Rotator.Load: read and decode the newest generation
	total time.Duration // load, WAL open, serve.New and the WAL replay
}

// restart reopens the primary's files the way a restarted cubed does —
// newest generation, then the WAL replayed on top — and times it. The
// primary must be closed first; the recovered server is dropped.
func (p *primary) restart(dir string) (restartStats, error) {
	var st restartStats
	base := filepath.Join(dir, p.name+".snap")
	start := time.Now()
	sn, _, err := snapshot.NewRotator(faultfs.OS{}, base).Load()
	if err != nil {
		return st, err
	}
	st.load = time.Since(start)
	wlog, recs, err := wal.Open(faultfs.OS{}, base+".wal")
	if err != nil {
		return st, err
	}
	defer wlog.Close()
	srv, err := serve.New(sn, serve.Config{WAL: wlog})
	if err != nil {
		return st, err
	}
	if _, err := srv.Replay(recs); err != nil {
		return st, err
	}
	st.total = time.Since(start)
	return st, nil
}

// follower is one `cubed -follow` replica.
type follower struct {
	f    *replica.Follower
	col  *obsv.Collector
	hs   *http.Server
	url  string
	stop context.CancelFunc
	done chan struct{}
}

// bootFollower starts a replica of p and waits for its snapshot
// bootstrap to finish.
func bootFollower(p *primary, dir string, tracer *Tracer) (*follower, error) {
	name := p.name + ".replica"
	fl := &follower{col: obsv.NewCollector(), done: make(chan struct{})}
	cfg := replica.Config{
		Primary:        p.url,
		FS:             tracer.FS(name, faultfs.OS{}),
		SnapshotPath:   filepath.Join(dir, name+".snap"),
		Tasks:          core.TaskAll,
		Recorder:       fl.col,
		PollWait:       5 * time.Second,
		RequestTimeout: 5 * time.Second,
		MaxInFlight:    128,
	}
	if tracer != nil {
		// The replica's own default client, with a span per pull.
		cfg.Client = &http.Client{Transport: tracer.Transport("replica.pull", &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
			ResponseHeaderTimeout: 45 * time.Second,
			MaxIdleConnsPerHost:   4,
		})}
	}
	var err error
	fl.f, err = replica.New(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	fl.stop = cancel
	go func() { defer close(fl.done); _ = fl.f.Run(ctx) }()
	fl.hs, fl.url, err = listen(tracer.Handler("serve.handler", name, fl.f.Handler()))
	if err != nil {
		fl.close()
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for fl.f.Server() == nil {
		if time.Now().After(deadline) {
			fl.close()
			return nil, errors.New("replica of " + p.name + " did not bootstrap within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	return fl, nil
}

func (fl *follower) close() {
	if fl.hs != nil {
		fl.hs.Close()
	}
	fl.stop()
	<-fl.done
}

// bootGate is cubegate with its default flags.
func bootGate(shards []gate.ShardConfig, col *obsv.Collector, tracer *Tracer) (*gate.Gate, *http.Server, string, error) {
	var transport http.RoundTripper
	if tracer != nil {
		transport = tracer.Transport("gate.upstream", &http.Transport{MaxIdleConnsPerHost: 16})
	}
	g, err := gate.New(gate.Config{
		Shards:           shards,
		Recorder:         col,
		Transport:        transport,
		RequestTimeout:   5 * time.Second,
		ShardTimeout:     2 * time.Second,
		MergeReserve:     100 * time.Millisecond,
		ProbeInterval:    2 * time.Second,
		BreakerThreshold: 3,
		BreakerBackoff:   5 * time.Second,
		HedgeQuantile:    0.9,
		HedgeMin:         5 * time.Millisecond,
		HedgeMax:         250 * time.Millisecond,
		WriteRetries:     3,
		WriteRetryBase:   100 * time.Millisecond,
		MaxRetryWait:     2 * time.Second,
	})
	if err != nil {
		return nil, nil, "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/", g.Handler())
	mux.Handle("/metrics", obsv.Handler(col))
	hs, url, err := listen(tracer.Handler("gate.handler", "gate", mux))
	if err != nil {
		g.Close()
		return nil, nil, "", err
	}
	return g, hs, url, nil
}

// phaseMs returns the latency (ms) of every read or write of a phase;
// a failed request counts as taking the whole request deadline, so it
// misses any latency limit the benchmark could state.
func phaseMs(ph phaseResult, writes bool) []float64 {
	var xs []float64
	for i, o := range ph.outcomes {
		if ph.ops[i].isWrite() != writes {
			continue
		}
		if o.failed {
			xs = append(xs, ms(requestDeadline))
			continue
		}
		xs = append(xs, ms(o.latency()))
	}
	return xs
}

// tally adds a phase's requests to the report's counts and returns its
// acknowledged inserts in acknowledgment order.
func tally(res *result, ph phaseResult) []op {
	var idx []int
	for i, o := range ph.outcomes {
		res.Attempted++
		if o.failed {
			res.Failed++
		} else if ph.ops[i].isWrite() {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return ph.outcomes[idx[a]].done < ph.outcomes[idx[b]].done })
	acked := make([]op, len(idx))
	for k, i := range idx {
		acked[k] = ph.ops[i]
	}
	return acked
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rdfcube/internal/loadgen"
)

// The load driver. It reuses loadgen.BuildPlan for request sequences but
// not loadgen.Run: Run's open loop starts each request's clock when a
// worker slot frees and drops a request when every slot is busy, so a
// server stall shows up as drops instead of latency. Here every request
// is queued behind at most `conns` connections and timed from the moment
// it was due, so a stall is charged to every request it delays.

// op is one request of a plan.
type op struct {
	kind   string // loadgen op kind: related, contains, complements, obs, insert
	method string
	path   string
	body   []byte
	uri    string // insert: the new observation's URI
}

func (o op) isWrite() bool { return o.kind == loadgen.OpInsert }

// outcome is what happened to one request. Times are offsets from the
// phase start.
type outcome struct {
	due, done time.Duration
	failed    bool
}

func (o outcome) latency() time.Duration { return o.done - o.due }

// phaseResult is one open- or closed-loop phase.
type phaseResult struct {
	ops      []op
	outcomes []outcome
	elapsed  time.Duration
	late     []time.Duration // open loop: release time minus due time
}

// driver issues plan requests against one base URL.
type driver struct {
	client   *http.Client
	base     string
	conns    int
	deadline time.Duration // per request, counted from its due time
	reqIDs   atomic.Int64
	// onAck runs after each acknowledged insert (the fleet's replica-lag
	// probe); nil skips it.
	onAck func(o op, at time.Time)
}

// requestDeadline bounds one request, counted from its due time; it is
// cubed's and cubegate's default request timeout.
const requestDeadline = 5 * time.Second

func newDriver(base string, conns int, tracer *Tracer) *driver {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &driver{
		client:   &http.Client{Transport: tracer.Transport("client", tr)},
		base:     base,
		conns:    conns,
		deadline: requestDeadline,
	}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

// do sends one request and reports whether it failed: a transport
// error, a deadline overrun, or any non-2xx answer (a 429 or 503 refusal
// included).
func (d *driver) do(ctx context.Context, o op) (failed bool) {
	ctx = withSpan(ctx, spanRef{req: d.reqIDs.Add(1)})
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, d.base+o.path, body)
	if err != nil {
		return true
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return true
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err != nil || resp.StatusCode < 200 || resp.StatusCode > 299
}

// open runs an open loop: op i is due at i/rate after the start, is
// released to the queue at that time whatever the server is doing, and
// waits there for one of d.conns workers. When checkpoint is set, it
// runs in the background once in the middle of each of `segments` equal
// segments of the phase, as a timer would fire it. The phase ends when
// every request and every checkpoint is done.
func (d *driver) open(ops []op, rate float64, segments int, checkpoint func()) phaseResult {
	res := phaseResult{ops: ops, outcomes: make([]outcome, len(ops)), late: make([]time.Duration, len(ops))}
	queue := make(chan int, len(ops)) // sized to the sends: release never blocks
	var wg sync.WaitGroup
	runtime.GC() // every phase starts from the same heap state
	start := time.Now()
	for w := 0; w < d.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				due := time.Duration(float64(i) / rate * float64(time.Second))
				ctx, cancel := context.WithDeadline(context.Background(), start.Add(due+d.deadline))
				failed := d.do(ctx, ops[i])
				cancel()
				done := time.Since(start)
				if done-due > d.deadline {
					failed = true
				}
				res.outcomes[i] = outcome{due: due, done: done, failed: failed}
				if !failed && d.onAck != nil && ops[i].isWrite() {
					d.onAck(ops[i], start.Add(done))
				}
			}
		}()
	}
	midpoint := map[int]bool{}
	for k := 0; k < segments; k++ {
		midpoint[(2*k+1)*len(ops)/(2*segments)] = true
	}
	var ckpts sync.WaitGroup
	for i := range ops {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		res.late[i] = time.Since(start) - due
		queue <- i
		if checkpoint != nil && midpoint[i] {
			ckpts.Add(1)
			go func() {
				defer ckpts.Done()
				checkpoint()
			}()
		}
	}
	close(queue)
	wg.Wait()
	ckpts.Wait()
	res.elapsed = time.Since(start)
	return res
}

// closed runs a closed loop: d.conns clients each send their next
// request as soon as the previous one completes, until dur has passed,
// or, with dur 0, until every op of the plan has been sent.
func (d *driver) closed(ops []op, dur time.Duration) (phaseResult, error) {
	res := phaseResult{ops: ops, outcomes: make([]outcome, len(ops))}
	var next atomic.Int64
	var exhausted atomic.Bool
	var wg sync.WaitGroup
	runtime.GC()
	start := time.Now()
	for w := 0; w < d.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for dur == 0 || time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					exhausted.Store(true)
					return
				}
				due := time.Since(start)
				ctx, cancel := context.WithTimeout(context.Background(), d.deadline)
				failed := d.do(ctx, ops[i])
				cancel()
				done := time.Since(start)
				res.outcomes[i] = outcome{due: due, done: done, failed: failed}
				if !failed && d.onAck != nil && ops[i].isWrite() {
					d.onAck(ops[i], start.Add(done))
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	if exhausted.Load() && dur != 0 {
		return res, fmt.Errorf("closed loop ran out of its %d-request plan; build a longer one", len(ops))
	}
	n := min(int(next.Load()), len(ops))
	res.ops, res.outcomes = ops[:n], res.outcomes[:n]
	return res, nil
}

// buildOps expands a loadgen plan of the "mixed" mix into ops. Stats
// requests are dropped (they are not part of either workload), insert
// URIs get the phase name so two plans never collide, and byURI turns
// index reads into URI reads (the gate rejects indices; it has no
// /v1/obs route, so those are dropped too). keepInsert thins inserts:
// insert k of the plan is kept when keepInsert(k) is true.
func buildOps(p *loadgen.Plan, phase string, uris []string, byURI bool, keepInsert func(k int) bool) ([]op, error) {
	var ops []op
	inserts := 0
	for _, lo := range p.Ops {
		o := op{kind: lo.Kind, method: lo.Method, path: lo.Path, body: lo.Body}
		switch lo.Kind {
		case loadgen.OpStats:
			continue
		case loadgen.OpObs:
			if byURI {
				continue
			}
		case loadgen.OpInsert:
			k := inserts
			inserts++
			if !keepInsert(k) {
				continue
			}
			o.body = bytes.Replace(lo.Body, []byte("/load/obs/"), []byte("/load/"+phase+"/obs/"), 1)
			o.uri = fmt.Sprintf("http://example.org/load/%s/obs/%d", phase, k)
			if !bytes.Contains(o.body, []byte(`"`+o.uri+`"`)) {
				return nil, fmt.Errorf("insert %d of the %s plan does not carry the expected URI %s", k, phase, o.uri)
			}
		case loadgen.OpRelated, loadgen.OpContains, loadgen.OpComplements:
			if byURI {
				var idx int
				if _, err := fmt.Sscanf(lo.Path, "/v1/"+lo.Kind+"?obs=%d", &idx); err != nil || idx < 0 || idx >= len(uris) {
					return nil, fmt.Errorf("unexpected plan path %q", lo.Path)
				}
				o.path = "/v1/" + lo.Kind + "?obs=" + url.QueryEscape(uris[idx])
			}
		default:
			return nil, fmt.Errorf("unexpected plan op %q", lo.Kind)
		}
		ops = append(ops, o)
	}
	return ops, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"rdfcube/internal/core"
	"rdfcube/internal/gen"
)

// runWorkload runs one tiny workload in process and returns its
// provenance stamp and result line.
func runWorkload(t *testing.T, workload, trace string) (map[string]any, report) {
	t.Helper()
	var out, errs bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
		"--scale", "10", "--workdir", t.TempDir()}, &out, &errs)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 || len(lines) < 2 {
		t.Fatalf("%s --trace %s: exit %d, stdout %q, stderr:\n%s", workload, trace, code, out.String(), errs.String())
	}
	var stamp map[string]any
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "provenance ")), &stamp); err != nil {
		t.Fatalf("provenance line %q: %v", lines[len(lines)-2], err)
	}
	var rep report
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return stamp, rep
}

// TestSmoke runs every workload at a tenth of its size in both modes and
// checks that it emits exactly the catalogued metrics of the mode, each
// with its unit, plus a full provenance stamp.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots full stacks")
	}
	for _, w := range []string{"batch", "mixed", "fleet"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				stamp, rep := runWorkload(t, w, trace)
				for _, k := range []string{"nproc", "gomaxprocs", "cpu", "go", "seed", "plan"} {
					if _, ok := stamp[k]; !ok {
						t.Errorf("provenance lacks %q: %v", k, stamp)
					}
				}
				if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				var got []string
				for name, m := range rep.Metrics {
					got = append(got, name)
					if m.Unit != unitOf(name) || m.Unit == "" {
						t.Errorf("%s: unit %q, want %q", name, m.Unit, unitOf(name))
					}
				}
				sort.Strings(got)
				want = append([]string(nil), want...)
				sort.Strings(want)
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("metrics\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the catalog
// in step: same names, same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, catalog []string) {
		want := map[string]bool{}
		for _, n := range catalog {
			want[n] = true
		}
		for _, m := range listed {
			if !want[m.Name] {
				t.Errorf("%s: %s is listed but not reported", kind, m.Name)
			}
			if m.Unit != unitOf(m.Name) {
				t.Errorf("%s: %s has unit %q, the benchmark reports %q", kind, m.Name, m.Unit, unitOf(m.Name))
			}
			delete(want, m.Name)
		}
		for n := range want {
			t.Errorf("%s: %s is reported but not listed", kind, n)
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d implemented", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is listed but not implemented", w.Name)
		}
	}
}

func smallResult(t *testing.T) (*core.Space, *core.Result) {
	t.Helper()
	s, err := core.NewSpace(gen.RealWorld(gen.RealWorldConfig{TotalObs: 120, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	res := core.NewResult()
	core.CubeMasking(s, core.TaskAll, res, core.CubeMaskOptions{})
	res.Sort()
	return s, res
}

func dropPair(r *core.Result, i int) *core.Result {
	out := &core.Result{FullSet: r.FullSet, ComplSet: r.ComplSet}
	out.PartialSet = append(append([]core.Pair(nil), r.PartialSet[:i]...), r.PartialSet[i+1:]...)
	return out
}

// The batch check must reject a result that lost one pair.
func TestDiffPairsCatchesDroppedPair(t *testing.T) {
	_, res := smallResult(t)
	if len(res.PartialSet) < 2 {
		t.Fatal("corpus too small to drop a pair")
	}
	if err := diffPairs("same", res, res); err != nil {
		t.Fatalf("identical results: %v", err)
	}
	if err := diffPairs("dropped", res, dropPair(res, len(res.PartialSet)/2)); err == nil {
		t.Fatal("a dropped partial pair passed the check")
	}
}

// The mixed check compares states by URI; it must reject a dropped pair
// even though the indices of the two states differ.
func TestDiffStatesCatchesDroppedPair(t *testing.T) {
	s, res := smallResult(t)
	if err := diffStates("same", s, res, s, res); err != nil {
		t.Fatalf("identical states: %v", err)
	}
	if err := diffStates("dropped", s, res, s, dropPair(res, 0)); err == nil {
		t.Fatal("a dropped partial pair passed the check")
	}
}

// The mixed check must reject files that lost an acknowledged insert.
func TestMissingAckedCatchesLostInsert(t *testing.T) {
	s, _ := smallResult(t)
	present := []string{s.Obs[0].URI.Value, s.Obs[s.N()-1].URI.Value}
	if err := missingAcked(present, urisOf(s)); err != nil {
		t.Fatalf("all present: %v", err)
	}
	if err := missingAcked(append(present, "http://example.org/load/open/obs/0"), urisOf(s)); err == nil {
		t.Fatal("a missing acknowledged insert passed the check")
	}
}

// The fleet check must pass against a real tiny fleet and fail when one
// byte of one gate answer is changed on the way.
func TestCheckFleetCatchesMutatedAnswer(t *testing.T) {
	const per = 12
	worlds, _ := gen.ShardWorlds(gen.ShardWorldsConfig{Seed: 7, ObsPerDataset: per})
	f, err := bootFleet(context.Background(), t.TempDir(), worlds, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	if err := checkFleet(7, per, f.url, nil); err != nil {
		t.Fatalf("honest gate: %v", err)
	}
	var mutated atomic.Bool
	mutator := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(f.url + r.URL.RequestURI())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(r.URL.Path, "related") && !mutated.Swap(true) {
			body = bytes.Replace(body, []byte(`"partial":false`), []byte(`"partial":true`), 1)
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	defer mutator.Close()
	if err := checkFleet(7, per, mutator.URL, nil); err == nil {
		t.Fatal("a mutated gate answer passed the check")
	}
}

func span(id, parent int64, name string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

// Self time is the span minus the union of its children; the blocking
// path follows the child that ends last.
func TestSelfTimesAndPathGap(t *testing.T) {
	spans := []Span{
		span(1, 0, "client", 0, 100),
		span(2, 1, "gate.handler.related", 10, 90),
		span(3, 2, "gate.upstream", 20, 50),
		span(4, 2, "gate.upstream", 30, 80), // overlaps 3: union is 20..80
		span(5, 4, "serve.handler.related", 40, 70),
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 20, 2: 20, 3: 30, 4: 20, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	// Path 1→2→4→5 sums 20+20+20+30 = 90 of 100: span 3 alone covers 20..30.
	gaps := pathGap(spans, func(s Span) bool { return s.Name == "client" })
	if len(gaps) != 1 || gaps[0] < 0.0999 || gaps[0] > 0.1001 {
		t.Errorf("path gap %v, want [0.1]", gaps)
	}
}

// File spans attach to the in-flight candidate that finishes first.
func TestAttachFS(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "serve.handler.insert", Tag: "p", Start: 0, End: 50},
		{ID: 2, Name: "serve.handler.insert", Tag: "p", Start: 5, End: 90},
		{ID: 3, Name: "fs.sync", Tag: "p:p.snap.wal", Start: 10, End: 20},
		{ID: 4, Name: "fs.sync", Tag: "p:p.snap.wal", Start: 60, End: 70},
		{ID: 5, Name: "fs.sync", Tag: "q:q.snap.wal", Start: 60, End: 70},
	}
	attachFS(spans, func(s Span) bool { return s.Name == "serve.handler.insert" },
		func(c Span, tag string) bool { return tag == c.Tag+":"+c.Tag+".snap.wal" })
	for i, want := range []int64{0, 0, 1, 2, 0} {
		if spans[i].Parent != want {
			t.Errorf("span %d parent %d, want %d", spans[i].ID, spans[i].Parent, want)
		}
	}
}

// Every idle metric is a catalogued per-layer metric, named once.
func TestIdleMetricsAreCatalogued(t *testing.T) {
	listed := map[string]bool{}
	for _, n := range perLayer {
		if listed[n] {
			t.Errorf("per-layer metric %s is listed twice", n)
		}
		listed[n] = true
	}
	for w, names := range idle {
		if workloads[w] == nil {
			t.Errorf("idle list for unknown workload %s", w)
		}
		seen := map[string]bool{}
		for _, n := range names {
			if !listed[n] || seen[n] {
				t.Errorf("%s: idle metric %s is not a per-layer metric or is named twice", w, n)
			}
			seen[n] = true
		}
	}
}

// A result that lacks a measured metric is refused, and so is one that
// measured a metric its workload calls idle.
func TestCompleteRejectsMissingOrIdleMetric(t *testing.T) {
	full := func(names []string) *result {
		r := &result{}
		for _, n := range names {
			r.set(n, 1)
		}
		return r
	}
	if err := complete("batch", false, full(endToEnd)); err != nil {
		t.Fatalf("complete end-to-end result: %v", err)
	}
	if err := complete("batch", false, full(endToEnd[1:])); err == nil {
		t.Error("a result without setup_s passed")
	}
	idleBatch := map[string]bool{}
	for _, n := range idle["batch"] {
		idleBatch[n] = true
	}
	var measured []string
	for _, n := range perLayer {
		if !idleBatch[n] {
			measured = append(measured, n)
		}
	}
	if err := complete("batch", true, full(measured)); err != nil {
		t.Fatalf("complete traced result: %v", err)
	}
	if err := complete("batch", true, full(perLayer)); err == nil {
		t.Error("a traced batch result that measured gate metrics passed")
	}
}

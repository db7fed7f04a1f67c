package main

import (
	"sort"
	"strings"
)

// Per-layer metrics computed from the spans of a traced phase.

func usOf(s Span) float64 { return float64(s.dur()) / 1e3 }

func spansNamed(spans []Span, keep func(Span) bool) []Span {
	var out []Span
	for _, s := range spans {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func durationsUs(spans []Span) []float64 {
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = usOf(s)
	}
	return xs
}

// isPrimaryWAL reports whether a file span hit a primary's WAL (not a
// replica's local chain, not a snapshot file).
func isPrimaryWAL(s Span) bool {
	return strings.HasPrefix(s.Name, "fs.") && strings.HasSuffix(s.Tag, ".wal") && !strings.Contains(s.Tag, ".replica")
}

// setWALMetrics: per insert, the Write+Sync time its WAL append took;
// and WAL fsyncs and bytes written per acknowledged insert. (Reads of
// the WAL — replicas tailing it — are not appends and count for
// nothing here.)
func setWALMetrics(res *result, spans []Span, acked int) {
	perInsert := map[int64]float64{}
	var syncs, bytes int64
	for _, s := range spans {
		if !isPrimaryWAL(s) || s.Name == "fs.read" {
			continue
		}
		if s.Name == "fs.sync" {
			syncs++
		}
		bytes += s.Bytes
		if s.Parent != 0 {
			perInsert[s.Parent] += usOf(s)
		}
	}
	var xs []float64
	for _, v := range perInsert {
		xs = append(xs, v)
	}
	res.set("wal.append_p50_us", quantile(xs, 0.50))
	res.set("wal.fsyncs_per_insert", float64(syncs)/float64(max(acked, 1)))
	res.set("wal.bytes_per_insert", float64(bytes)/float64(max(acked, 1)))
}

func setHandlerMetrics(res *result, spans []Span, routes []string) {
	for _, r := range routes {
		xs := durationsUs(spansNamed(spans, func(s Span) bool { return s.Name == "serve.handler."+r }))
		res.set("serve.handler."+r+".p50_us", quantile(xs, 0.50))
		res.set("serve.handler."+r+".p99_us", quantile(xs, 0.99))
	}
}

var readRoutes = map[string]bool{"related": true, "contains": true, "complements": true, "obs": true}

// setCheckpointMetrics: checkpoint duration, and the longest stretch of
// a checkpoint during which no read finished on that server.
func setCheckpointMetrics(res *result, spans []Span) {
	ckpts := spansNamed(spans, func(s Span) bool { return s.Name == "checkpoint" })
	var durs []float64
	var stall int64
	for _, c := range ckpts {
		durs = append(durs, float64(c.dur())/1e9)
		var ends []int64
		for _, s := range spans {
			route, ok := strings.CutPrefix(s.Name, "serve.handler.")
			if ok && readRoutes[route] && s.Tag == c.Tag && s.End >= c.Start && s.End <= c.End {
				ends = append(ends, s.End)
			}
		}
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		prev := c.Start
		for _, e := range append(ends, c.End) {
			stall = max(stall, e-prev)
			prev = e
		}
	}
	res.set("serve.checkpoint_s", median(durs))
	res.set("serve.checkpoint.read_stall_ms", float64(stall)/1e6)
}

// loopbackP50: for every client-side round trip whose server-side
// handler span was recorded, the round trip minus the handler time.
func loopbackP50(spans []Span) float64 {
	byID := map[int64]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var xs []float64
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "serve.handler.") && !strings.HasPrefix(s.Name, "gate.handler.") {
			continue
		}
		p, ok := byID[s.Parent]
		if ok && (p.Name == "client" || p.Name == "gate.upstream") {
			xs = append(xs, usOf(p)-usOf(s))
		}
	}
	return quantile(xs, 0.50)
}

// setDriverMetrics: the untraced open loop's latencies as the client
// sees them, how late the generator released requests, what tracing
// cost (traced against untraced median latency of the same open loop),
// and how much of each request's time the layers on its blocking path
// fail to account for.
func setDriverMetrics(res *result, untraced, traced phaseResult, spans []Span) {
	for _, kind := range []struct {
		name   string
		writes bool
	}{{"read", false}, {"write", true}} {
		xs := phaseMs(untraced, kind.writes)
		res.set("client."+kind.name+"_p50_ms", quantile(xs, 0.50))
		res.set("client."+kind.name+"_p99_ms", quantile(xs, 0.99))
	}
	var late []float64
	for _, l := range traced.late {
		late = append(late, ms(l))
	}
	res.set("driver.late_p99_ms", quantile(late, 0.99))
	all := func(ph phaseResult) float64 {
		return quantile(append(phaseMs(ph, false), phaseMs(ph, true)...), 0.50)
	}
	res.set("trace.overhead_frac", all(traced)/all(untraced)-1)
	res.set("trace.path_gap_frac", median(pathGap(spans, func(s Span) bool { return s.Name == "client" })))
}

package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Collector is the in-memory Recorder: atomic counters (safe for the
// parallel worker pool), gauges, and a phase-span tree. It renders a human
// run report (Report), expvar-style JSON (MarshalJSON) and a Prometheus-
// flavoured text exposition (WriteMetrics).
type Collector struct {
	cmu      sync.RWMutex
	counters map[string]*Counter

	gmu    sync.Mutex
	gauges map[string]float64

	hmu   sync.RWMutex
	hists map[string]*Histogram

	smu   sync.Mutex
	roots []*Span
	stack []*Span
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{
		counters: map[string]*Counter{},
		gauges:   map[string]float64{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it at zero on first use.
// The returned *Counter may be retained and Add-ed directly, bypassing
// the map lookup — that is what the worker pool does.
func (c *Collector) Counter(name string) *Counter {
	c.cmu.RLock()
	ctr, ok := c.counters[name]
	c.cmu.RUnlock()
	if ok {
		return ctr
	}
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if ctr, ok = c.counters[name]; ok {
		return ctr
	}
	ctr = &Counter{}
	c.counters[name] = ctr
	return ctr
}

// Count implements Recorder.
func (c *Collector) Count(name string, delta int64) {
	if delta == 0 {
		return
	}
	c.Counter(name).Add(delta)
}

// Gauge implements Recorder.
func (c *Collector) Gauge(name string, value float64) {
	c.gmu.Lock()
	c.gauges[name] = value
	c.gmu.Unlock()
}

// Histogram returns the named histogram, creating it at zero on first
// use. Like Counter, the returned *Histogram may be retained and
// Observe-d directly, bypassing the map lookup.
func (c *Collector) Histogram(name string) *Histogram {
	c.hmu.RLock()
	h, ok := c.hists[name]
	c.hmu.RUnlock()
	if ok {
		return h
	}
	c.hmu.Lock()
	defer c.hmu.Unlock()
	if h, ok = c.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	c.hists[name] = h
	return h
}

// Observe implements Observer: it records value into the named histogram.
func (c *Collector) Observe(name string, value int64) {
	c.Histogram(name).Observe(value)
}

// HistSnapshot returns a snapshot of the named histogram, or (nil, false)
// when nothing was ever observed under that name.
func (c *Collector) HistSnapshot(name string) (*HistSnapshot, bool) {
	c.hmu.RLock()
	h, ok := c.hists[name]
	c.hmu.RUnlock()
	if !ok {
		return nil, false
	}
	return h.Snapshot(), true
}

// Histograms snapshots every histogram.
func (c *Collector) Histograms() map[string]*HistSnapshot {
	c.hmu.RLock()
	defer c.hmu.RUnlock()
	out := make(map[string]*HistSnapshot, len(c.hists))
	for name, h := range c.hists {
		out[name] = h.Snapshot()
	}
	return out
}

// Start implements Recorder: it opens a span as a child of the innermost
// open span (or as a root) and returns the closer.
func (c *Collector) Start(name string) func() {
	sp := &Span{Name: name, start: time.Now(), open: true}
	c.smu.Lock()
	if n := len(c.stack); n > 0 {
		parent := c.stack[n-1]
		parent.Children = append(parent.Children, sp)
	} else {
		c.roots = append(c.roots, sp)
	}
	c.stack = append(c.stack, sp)
	c.smu.Unlock()

	var once sync.Once
	return func() {
		once.Do(func() {
			c.smu.Lock()
			sp.Seconds = time.Since(sp.start).Seconds()
			sp.open = false
			// Pop the stack down to (and including) this span. Spans left
			// open below it are closed defensively with their elapsed time.
			for i := len(c.stack) - 1; i >= 0; i-- {
				top := c.stack[i]
				c.stack = c.stack[:i]
				if top == sp {
					break
				}
				if top.open {
					top.Seconds = time.Since(top.start).Seconds()
					top.open = false
				}
			}
			c.smu.Unlock()
			// Every phase close feeds the per-phase duration histogram, so
			// long-running servers get kernel-phase latency distributions
			// (phase.compare.us, phase.emit.us, …) for free — one Observe
			// per phase, nowhere near the per-pair hot path.
			c.Observe("phase."+sp.Name+".us", int64(sp.Seconds*1e6))
		})
	}
}

// Snapshot returns a copy of every counter's current value.
func (c *Collector) Snapshot() map[string]int64 {
	c.cmu.RLock()
	defer c.cmu.RUnlock()
	out := make(map[string]int64, len(c.counters))
	for name, ctr := range c.counters {
		out[name] = ctr.Load()
	}
	return out
}

// Gauges returns a copy of every gauge's current value.
func (c *Collector) Gauges() map[string]float64 {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	out := make(map[string]float64, len(c.gauges))
	for name, v := range c.gauges {
		out[name] = v
	}
	return out
}

// Spans returns a deep copy of the recorded phase tree. Spans still open
// report their elapsed time so live /metrics scrapes see progress.
func (c *Collector) Spans() []*Span {
	c.smu.Lock()
	defer c.smu.Unlock()
	out := make([]*Span, len(c.roots))
	for i, sp := range c.roots {
		out[i] = copySpan(sp)
	}
	return out
}

func copySpan(sp *Span) *Span {
	cp := &Span{Name: sp.Name, Seconds: sp.Seconds}
	if sp.open {
		cp.Seconds = time.Since(sp.start).Seconds()
	}
	if len(sp.Counters) > 0 {
		cp.Counters = make(map[string]int64, len(sp.Counters))
		for k, v := range sp.Counters {
			cp.Counters[k] = v
		}
	}
	cp.Children = make([]*Span, len(sp.Children))
	for i, ch := range sp.Children {
		cp.Children[i] = copySpan(ch)
	}
	if len(cp.Children) == 0 {
		cp.Children = nil
	}
	return cp
}

// snapshotJSON is the exported JSON shape of a Collector.
type snapshotJSON struct {
	Phases     []*Span                    `json:"phases,omitempty"`
	Counters   map[string]int64           `json:"counters,omitempty"`
	Gauges     map[string]float64         `json:"gauges,omitempty"`
	Histograms map[string]QuantileSummary `json:"histograms,omitempty"`
}

// MarshalJSON renders the collector expvar-style: a single JSON object
// with phases, counters, gauges and histogram quantile summaries.
func (c *Collector) MarshalJSON() ([]byte, error) {
	var summaries map[string]QuantileSummary
	if hists := c.Histograms(); len(hists) > 0 {
		summaries = make(map[string]QuantileSummary, len(hists))
		for name, s := range hists {
			summaries[name] = s.Summary()
		}
	}
	return json.Marshal(snapshotJSON{
		Phases:     c.Spans(),
		Counters:   c.Snapshot(),
		Gauges:     c.Gauges(),
		Histograms: summaries,
	})
}

// Report renders the human run report: the phase tree with durations,
// then the counter and gauge tables, sorted by name.
func (c *Collector) Report() string {
	var b strings.Builder
	spans := c.Spans()
	if len(spans) > 0 {
		b.WriteString("phases:\n")
		for _, sp := range spans {
			writeSpan(&b, sp, 1)
		}
	}
	counters := c.Snapshot()
	if len(counters) > 0 {
		b.WriteString("counters:\n")
		w := 0
		names := sortedKeys(counters)
		for _, n := range names {
			if len(n) > w {
				w = len(n)
			}
		}
		for _, n := range names {
			fmt.Fprintf(&b, "  %-*s  %s\n", w, n, groupDigits(counters[n]))
		}
	}
	gauges := c.Gauges()
	if len(gauges) > 0 {
		b.WriteString("gauges:\n")
		w := 0
		names := make([]string, 0, len(gauges))
		for n := range gauges {
			names = append(names, n)
			if len(n) > w {
				w = len(n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "  %-*s  %g\n", w, n, gauges[n])
		}
	}
	return b.String()
}

func writeSpan(b *strings.Builder, sp *Span, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%-*s  %s\n", indent, 28-2*depth, sp.Name, FormatSeconds(sp.Seconds))
	for _, ch := range sp.Children {
		writeSpan(b, ch, depth+1)
	}
}

// WriteMetrics writes the Prometheus-flavoured text exposition: one
// rdfcube_counter / rdfcube_gauge / rdfcube_phase_seconds sample per
// metric, labelled with the dotted metric name.
func (c *Collector) WriteMetrics(w io.Writer) error {
	var b strings.Builder
	b.WriteString("# TYPE rdfcube_counter counter\n")
	counters := c.Snapshot()
	for _, n := range sortedKeys(counters) {
		fmt.Fprintf(&b, "rdfcube_counter{name=%q} %d\n", n, counters[n])
	}
	b.WriteString("# TYPE rdfcube_gauge gauge\n")
	gauges := c.Gauges()
	gnames := make([]string, 0, len(gauges))
	for n := range gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		fmt.Fprintf(&b, "rdfcube_gauge{name=%q} %g\n", n, gauges[n])
	}
	// Histograms follow the Prometheus histogram convention — cumulative
	// _bucket samples with `le` upper bounds, then _sum and _count. Only
	// occupied buckets are emitted (sparse expositions are valid and keep
	// the page small); the dotted metric name carries the unit (.us).
	hists := c.Histograms()
	if len(hists) > 0 {
		b.WriteString("# TYPE rdfcube_hist histogram\n")
		hnames := make([]string, 0, len(hists))
		for n := range hists {
			hnames = append(hnames, n)
		}
		sort.Strings(hnames)
		for _, n := range hnames {
			s := hists[n]
			var total uint64
			s.Buckets(func(upper int64, cumulative uint64) bool {
				fmt.Fprintf(&b, "rdfcube_hist_bucket{name=%q,le=%q} %d\n", n, formatLe(upper), cumulative)
				total = cumulative
				return true
			})
			fmt.Fprintf(&b, "rdfcube_hist_bucket{name=%q,le=\"+Inf\"} %d\n", n, total)
			fmt.Fprintf(&b, "rdfcube_hist_sum{name=%q} %d\n", n, s.Sum)
			fmt.Fprintf(&b, "rdfcube_hist_count{name=%q} %d\n", n, total)
		}
	}
	b.WriteString("# TYPE rdfcube_phase_seconds gauge\n")
	var walk func(prefix string, sp *Span)
	walk = func(prefix string, sp *Span) {
		path := sp.Name
		if prefix != "" {
			path = prefix + "/" + sp.Name
		}
		fmt.Fprintf(&b, "rdfcube_phase_seconds{phase=%q} %.6f\n", path, sp.Seconds)
		for _, ch := range sp.Children {
			walk(path, ch)
		}
	}
	for _, sp := range c.Spans() {
		walk("", sp)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatLe renders a bucket upper bound the way Prometheus clients
// expect (no exponent for small integers, %g beyond).
func formatLe(v int64) string {
	return fmt.Sprintf("%g", float64(v))
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// groupDigits renders 1234567 as "1,234,567".
func groupDigits(v int64) string {
	s := fmt.Sprintf("%d", v)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var b strings.Builder
	for i, r := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			b.WriteByte(',')
		}
		b.WriteRune(r)
	}
	if neg {
		return "-" + b.String()
	}
	return b.String()
}

// FormatSeconds renders a duration in seconds at human scale (µs → h).
func FormatSeconds(sec float64) string {
	d := time.Duration(sec * float64(time.Second))
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.2fh", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.2fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

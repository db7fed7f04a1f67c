package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdfcube/internal/faultfs"
)

// The tracer records spans from the benchmark's side of the program's
// public seams: an http.Handler wrapper around serve and gate handlers,
// an http.RoundTripper for every client (driver, gate upstream, replica
// pulls), and a faultfs.FS for the WAL and snapshot files. The program
// itself is untouched; a span is the time one call into a layer took.
//
// A span links to its parent through the request context inside one
// process hop and through two headers across a loopback hop. File
// system calls carry no context, so they are attached to the handler or
// checkpoint span that contains them after the run (see attachFS).

// Span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch, on the monotonic clock.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"` // driver request ID; 0 for background work
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"` // which server, file or route
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Bytes  int64  `json:"bytes,omitempty"` // fs.write only
}

func (s Span) dur() int64 { return s.End - s.Start }

const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// Tracer keeps spans in memory. A nil *Tracer is valid and records
// nothing; the wrappers it builds then return their input unchanged, so
// an untraced run assembles exactly the stack the daemons assemble.
// While installed, on gates recording: the traced run flips it to
// compare traced and untraced halves on one assembly.
type Tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer {
	t := &Tracer{epoch: time.Now()}
	t.on.Store(true)
	return t
}

func (t *Tracer) active() bool { return t != nil && t.on.Load() }

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *Tracer) newID() int64 { return t.ids.Add(1) }

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Reset drops recorded spans (the untraced half of a traced run keeps
// none).
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

type spanRef struct{ req, id int64 }

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

// Handler wraps h so every request records a span named
// "<layer>.<route>" tagged with server.
func (t *Tracer) Handler(layer, server string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		id := t.newID()
		start := t.now()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), spanRef{req, id})))
		t.record(Span{ID: id, Parent: parent, Req: req, Name: layer + "." + routeOf(r), Tag: server, Start: start, End: t.now()})
	})
}

// routeOf names the API route of a request the way serve and gate name
// their latency histograms.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/observations":
		return "insert"
	case strings.HasPrefix(p, "/v1/obs/"):
		return "obs"
	case p == "/v1/wal":
		return "waltail"
	case strings.HasPrefix(p, "/v1/"):
		return strings.TrimPrefix(p, "/v1/")
	}
	return strings.Trim(p, "/")
}

// Transport wraps base so every round trip records a span named name,
// from the request's start until its response body is closed, and
// forwards the request and span IDs to the next hop.
func (t *Tracer) Transport(name string, base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return &traceTransport{t: t, name: name, base: base}
}

type traceTransport struct {
	t    *Tracer
	name string
	base http.RoundTripper
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tt.t
	if !t.on.Load() {
		return tt.base.RoundTrip(req)
	}
	parent := spanFrom(req.Context())
	sp := Span{ID: t.newID(), Parent: parent.id, Req: parent.req, Name: tt.name, Tag: routeOf(req), Start: t.now()}
	out := req.Clone(req.Context())
	out.Header.Set(hdrReq, strconv.FormatInt(sp.Req, 10))
	out.Header.Set(hdrSpan, strconv.FormatInt(sp.ID, 10))
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		sp.End = t.now()
		t.record(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, sp: sp}
	return resp, nil
}

func (tt *traceTransport) CloseIdleConnections() {
	if c, ok := tt.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// spanBody ends its round-trip span when the caller closes the body,
// so the span covers the whole response, not just its headers.
type spanBody struct {
	io.ReadCloser
	t    *Tracer
	sp   Span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.End = b.t.now()
		b.t.record(b.sp)
	})
	return err
}

// FS wraps base so file writes, syncs and whole-file reads record
// spans tagged "<name>:<file>".
func (t *Tracer) FS(name string, base faultfs.FS) faultfs.FS {
	if t == nil {
		return base
	}
	return &traceFS{t: t, name: name, FS: base}
}

type traceFS struct {
	t    *Tracer
	name string
	faultfs.FS
}

func (f *traceFS) tag(path string) string { return f.name + ":" + filepath.Base(path) }

func (f *traceFS) span(name, path string, start int64, bytes int64) {
	if f.t.on.Load() {
		f.t.record(Span{ID: f.t.newID(), Name: name, Tag: f.tag(path), Start: start, End: f.t.now(), Bytes: bytes})
	}
}

func (f *traceFS) OpenAppend(path string) (faultfs.File, error) {
	h, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: h, fs: f, path: path}, nil
}

func (f *traceFS) Create(path string) (faultfs.File, error) {
	h, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: h, fs: f, path: path}, nil
}

func (f *traceFS) ReadFile(path string) ([]byte, error) {
	start := f.t.now()
	data, err := f.FS.ReadFile(path)
	f.span("fs.read", path, start, int64(len(data)))
	return data, err
}

type traceFile struct {
	faultfs.File
	fs   *traceFS
	path string
}

func (h *traceFile) Write(p []byte) (int, error) {
	start := h.fs.t.now()
	n, err := h.File.Write(p)
	h.fs.span("fs.write", h.path, start, int64(n))
	return n, err
}

func (h *traceFile) Sync() error {
	start := h.fs.t.now()
	err := h.File.Sync()
	h.fs.span("fs.sync", h.path, start, 0)
	return err
}

// ---- analysis ----

// attachFS gives each parentless file-system span the innermost span
// that could have issued it: among candidates (handler or checkpoint
// spans) whose interval contains it, the one that ended first. Inserts
// are serialized under the server's write lock, so the insert that held
// the lock during a WAL append is the one that finishes first of those
// in flight; owns reports whether a candidate may own a file tag.
func attachFS(spans []Span, candidate func(Span) bool, owns func(cand Span, fsTag string) bool) {
	var cands []int
	for i, s := range spans {
		if candidate(s) {
			cands = append(cands, i)
		}
	}
	sort.Slice(cands, func(a, b int) bool { return spans[cands[a]].End < spans[cands[b]].End })
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || !strings.HasPrefix(s.Name, "fs.") {
			continue
		}
		// First candidate ending at or after the fs span that also
		// started before it.
		k := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].End >= s.End })
		for ; k < len(cands); k++ {
			c := spans[cands[k]]
			if c.Start <= s.Start && owns(c, s.Tag) {
				s.Parent, s.Req = c.ID, c.Req
				break
			}
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// covered by the union of its children.
func selfTimes(spans []Span) map[int64]int64 {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of [p.Start, p.End] covered by the union of cs.
func covered(p Span, cs []Span) int64 {
	if len(cs) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(cs))
	for _, c := range cs {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// pathGap follows each root's blocking path — at every level the child
// that ended last — and returns, per root, how far the sum of self
// times along that path falls short of the root's duration, as a share
// of it. Zero means the layers on the path account for all of it.
func pathGap(spans []Span, roots func(Span) bool) []float64 {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := selfTimes(spans)
	var gaps []float64
	for _, r := range spans {
		if !roots(r) || r.dur() <= 0 || len(kids[r.ID]) == 0 {
			continue
		}
		sum := int64(0)
		for cur := r; ; {
			sum += self[cur.ID]
			cs := kids[cur.ID]
			if len(cs) == 0 {
				break
			}
			next := cs[0]
			for _, c := range cs[1:] {
				if c.End > next.End {
					next = c
				}
			}
			cur = next
		}
		gaps = append(gaps, 1-float64(sum)/float64(r.dur()))
	}
	return gaps
}

// Command e2ebench is the repository's end-to-end benchmark. It assembles
// the stack cmd/cubed and cmd/cubegate assemble — through the same
// public constructors — drives one workload against it, checks every
// answer it can against a serial or unsharded oracle, and prints one
// JSON result line.
//
//	e2ebench --workload batch|mixed|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run (see README.md). Every
// workload reports every metric of its mode. The
// last stdout line is the result; the line before it is the provenance
// stamp. The exit code is non-zero when a correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
	// scale shrinks the workload for smoke tests: corpus sizes, rates
	// and repetitions are divided by it. 1 is the benchmark.
	scale int
	logf  func(format string, a ...any)
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload hands back: the report plus what the
// provenance stamp needs.
type result struct {
	report
	digest string // plan digest: identical traffic gives identical digests
	spans  []Span // traced run: written out at the end
	checks error  // the first failed correctness check
}

func (r *result) set(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: batch, mixed or fleet")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: corpus and request plans derive from it")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for WAL, snapshot and trace files")
	fs.IntVar(&cfg.scale, "scale", 1, "divide corpus sizes, rates and repetitions by this (smoke tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || cfg.seconds <= 0 || cfg.scale < 1 {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1, --seconds and --scale positive")
		return 2
	}
	cfg.trace = trace == 1
	cfg.logf = func(format string, a ...any) { fmt.Fprintf(stderr, "e2ebench: "+format+"\n", a...) }
	workload, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want batch, mixed or fleet)\n", cfg.workload)
		return 2
	}
	runDir, err := os.MkdirTemp(cfg.workDir, "run-"+cfg.workload+"-")
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	cfg.workDir = runDir

	res, err := workload(cfg)
	if err == nil {
		err = complete(cfg.workload, cfg.trace, res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(filepath.Dir(runDir), "trace-"+cfg.workload+".jsonl")
		if err := writeSpans(path, res.spans); err != nil {
			cfg.logf("writing spans: %v", err)
		}
	}
	res.Correct = res.checks == nil
	if res.checks != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: correctness check failed: %v\n", cfg.workload, res.checks)
	}
	stamp, _ := json.Marshal(provenance(cfg, res.digest))
	fmt.Fprintf(stdout, "provenance %s\n", stamp)
	line, err := json.Marshal(res.report)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

var workloads = map[string]func(config) (*result, error){
	"batch": runBatch,
	"mixed": runMixed,
	"fleet": runFleet,
}

// provenance identifies the host and the traffic of one run.
func provenance(cfg config, digest string) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"plan":       digest,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// digestOps hashes request sequences: method, path and body of every op.
func digestOps(phases ...[]op) string {
	h := fnv.New64a()
	for _, ops := range phases {
		for _, o := range ops {
			fmt.Fprintf(h, "%s %s\n", o.method, o.path)
			h.Write(o.body)
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ---- statistics ----

// quantile is the Harrell–Davis estimate of the q-quantile of xs (sorted
// in place): the mean of all order statistics weighted by a
// Beta(q(n+1), (1−q)(n+1)) distribution. In a tail, where p99 of a few
// hundred samples would otherwise be the second-largest one alone, it
// averages the few largest and is far steadier from run to run.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	sum, prev := 0.0, 0.0
	for i, x := range xs {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * x
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b), by its
// continued fraction (Numerical Recipes §6.4).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-13 {
			break
		}
	}
	return h
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// stages logs, at each call, how long the stage of a run that just
// ended took.
func stages(logf func(format string, a ...any)) func(name string) {
	last := time.Now()
	return func(name string) {
		logf("%s: %.1fs", name, time.Since(last).Seconds())
		last = time.Now()
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapMiB forces a collection and reports the live heap.
func heapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

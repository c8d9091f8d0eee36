// Command qoebench is the repository's benchmark: seeded workloads driven
// through the public APIs of fleet, core/analyzer, qoestore and qoemon,
// with a correctness gate on every output. Untraced runs print the
// end-to-end metrics; traced runs (--trace 1) print per-layer metrics and
// write a spans file. See README.md for the workloads and metrics.
//
//	qoebench --workload grid-browse --seed 1 --seconds 20 --trace 0
//	qoebench --workload all
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// JSON report per workload stamped with the machine it ran on.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/fleet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// env stamps every report with the machine and settings it ran on.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
	Workers    int    `json:"shard_workers"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
}

// sampled is a reported figure with its unit and sample count.
type sampled struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report is the human- and machine-readable line printed per workload.
type report struct {
	Workload string             `json:"workload"`
	Env      env                `json:"env"`
	Correct  bool               `json:"correct"`
	Errors   []string           `json:"errors,omitempty"`
	Figures  map[string]sampled `json:"figures"`
	Notes    []string           `json:"notes,omitempty"`
	Spans    string             `json:"spans_file,omitempty"`
	Counts   *fleetCounts       `json:"counts,omitempty"`
}

// outcome is what one workload run hands back to run.
type outcome struct {
	report    report
	metrics   map[string]float64 // end-to-end or per-layer, by --trace
	attempted int
	failed    int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qoebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 10, "measured wall seconds per workload")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a spans file")
	out := fs.String("out", filepath.Join(".bench_build", "run"), "directory for spans files and scratch stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "qoebench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "qoebench: --seconds must be at least 1")
		return 2
	}
	var list []workload
	if *name == "all" {
		list = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "qoebench:", err)
			return 2
		}
		list = []workload{w}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "qoebench:", err)
		return 1
	}

	res := result{Correct: true, Metrics: map[string]metricOut{}}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	enc := json.NewEncoder(stdout)
	for _, w := range list {
		o, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
		if err != nil {
			fmt.Fprintf(stderr, "qoebench: %s: %v\n", w.name, err)
			return 1
		}
		o.report.Env.Seed, o.report.Env.Seconds, o.report.Env.Traced = *seed, *seconds, *trace == 1
		if err := enc.Encode(o.report); err != nil {
			return 1
		}
		res.Correct = res.Correct && o.report.Correct
		res.Attempted += o.attempted
		res.Failed += o.failed
		for _, d := range defs {
			key := d.Name
			if len(list) > 1 {
				key = w.name + "." + d.Name
			}
			res.Metrics[key] = metricOut{Value: o.metrics[d.Name], Unit: d.Unit}
		}
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "qoebench: correctness gate failed")
		return 1
	}
	return 0
}

func newEnv(workers int) env {
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Workers:    workers,
	}
}

func runWorkload(w workload, seed int64, budget time.Duration, traced bool, outDir string) (outcome, error) {
	workDir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(workDir)
	var tr *Tracer
	if traced {
		tr = NewTracer()
	}
	var o outcome
	if w.fleet != nil {
		o, err = runFleetWorkload(w, seed, budget, tr, workDir)
	} else {
		o, err = runIngestWorkload(w, seed, budget, tr, workDir)
	}
	if err != nil {
		return o, err
	}
	o.report.Workload = w.name
	if traced {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		if err := tr.WriteFile(path); err != nil {
			return o, err
		}
		o.report.Spans = path
		for name, d := range LayerSelf(tr.Spans()) {
			o.report.Figures["self."+name+"_s"] = sampled{Value: d.Seconds(), Unit: "s", Samples: 1}
		}
	}
	return o, nil
}

// repPlan decides whether another rep fits the budget: at least min reps
// run, and a further one starts only if a rep as long as the longest so
// far would still end inside the budget. In traced runs reps alternate
// untraced and traced, so both kinds see the same machine conditions.
type repPlan struct {
	start   time.Time
	budget  time.Duration
	min     int
	longest time.Duration
	n       int
}

// newRepPlan wants 3 untraced reps, or 1 untraced and 1 traced rep.
func newRepPlan(start time.Time, budget time.Duration, traced bool) repPlan {
	p := repPlan{start: start, budget: budget, min: 3}
	if traced {
		p.min = 2
	}
	return p
}

func (p *repPlan) next() bool {
	if p.n < p.min {
		return true
	}
	return time.Since(p.start)+p.longest <= p.budget
}

func (p *repPlan) done(d time.Duration) {
	p.n++
	p.longest = max(p.longest, d)
}

// runReps runs reps while the plan allows, alternating untraced and
// traced ones when tr is set, and sorts the successful ones by kind.
func runReps[T any](plan *repPlan, tr *Tracer, rep func(tr *Tracer) (T, error)) (plain, traced []T, errs []error) {
	for i := 0; plan.next(); i++ {
		useTrace := tr != nil && i%2 == 1
		var repTr *Tracer
		if useTrace {
			repTr = tr
		}
		t := time.Now()
		r, err := rep(repTr)
		plan.done(time.Since(t))
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("rep %d: %w", i, err))
		case useTrace:
			traced = append(traced, r)
		default:
			plain = append(plain, r)
		}
	}
	return plain, traced, errs
}

// setupSamples is how many set-ups each run times, before its reps, for
// the setup_s median.
const setupSamples = 15

// timeSetups runs setup n times and returns the median seconds. Each one
// starts right after a collection, so none pays for another's garbage.
func timeSetups(n int, setup func() (func(), error)) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t := time.Now()
		closeFn, err := setup()
		if err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t).Seconds())
		closeFn()
	}
	return median(xs), nil
}

// finish records the run's errors in its report and reports whether
// enough reps succeeded to compute metrics. When they did not, the run
// still prints its report and result, marked incorrect, with no metrics.
func finish(o *outcome, errs []error, plain, traced int, wantTraced bool) bool {
	if plain == 0 {
		errs = append(errs, errors.New("no untraced rep succeeded"))
	}
	if wantTraced && traced == 0 {
		errs = append(errs, errors.New("no traced rep succeeded"))
	}
	for _, e := range errs {
		o.report.Errors = append(o.report.Errors, e.Error())
	}
	o.report.Correct = len(errs) == 0
	o.metrics = map[string]float64{}
	return plain > 0 && (!wantTraced || traced > 0)
}

// medianOf applies f to every rep and returns the median.
func medianOf[T any](reps []T, f func(T) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// mergeLayers takes, per metric, the median over traced reps.
func mergeLayers(samples []map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		xs := make([]float64, 0, len(samples))
		for _, s := range samples {
			xs = append(xs, s[d.Name])
		}
		out[d.Name] = median(xs)
	}
	return out
}

func runFleetWorkload(w workload, seed int64, budget time.Duration, tr *Tracer, workDir string) (outcome, error) {
	spec := w.fleet(seed)
	o := outcome{report: report{Env: newEnv(spec.Workers), Figures: map[string]sampled{}}}
	start := time.Now()
	setupS, err := timeSetups(setupSamples, func() (func(), error) {
		_, err := fleet.Build(spec.Scen, spec.options()...)
		return func() {}, err
	})
	if err != nil {
		return o, err
	}
	plan := newRepPlan(start, budget, tr != nil)
	var first *fleetCounts
	plain, traced, errs := runReps(&plan, tr, func(repTr *Tracer) (fleetRep, error) {
		rep, err := runFleetRep(spec, repTr, workDir, false)
		o.attempted += len(spec.Scen.UEs)
		if err == nil {
			if first == nil {
				c := rep.Counts
				first = &c
			} else if rep.Counts != *first {
				err = fmt.Errorf("differs from rep 0 at the same seed: %+v vs %+v", rep.Counts, *first)
			}
		}
		if err != nil {
			o.failed += len(spec.Scen.UEs)
		}
		return rep, err
	})
	if first != nil && seed == defaultSeed {
		want, err := goldenFor(w.name)
		if err == nil {
			err = checkGolden(*first, want)
		}
		if err != nil {
			errs = append(errs, err)
			o.failed = o.attempted
		}
	}
	o.report.Counts = first
	if !finish(&o, errs, len(plain), len(traced), tr != nil) {
		return o, nil
	}

	ues := float64(len(spec.Scen.UEs))
	unit := ues * spec.Horizon.Seconds() // UE-virtual-seconds per rep
	e2e := map[string]float64{
		"setup_s":         setupS,
		"cpu_ns_per_unit": medianOf(plain, func(r fleetRep) float64 { return float64(r.CPU.Nanoseconds()) / unit }),
		"allocs_per_unit": medianOf(plain, func(r fleetRep) float64 { return float64(r.Allocs) / ues }),
		"peak_heap_mib":   medianOf(plain, func(r fleetRep) float64 { return r.PeakMiB }),
	}
	n := len(plain)
	f := o.report.Figures
	f["setup_s"] = sampled{e2e["setup_s"], "s", setupSamples}
	f["ns_per_ue_vsec"] = sampled{medianOf(plain, func(r fleetRep) float64 { return float64(r.Span.Nanoseconds()) / unit }), "ns", n}
	f["cpu_ns_per_ue_vsec"] = sampled{e2e["cpu_ns_per_unit"], "ns", n}
	f["allocs_per_ue"] = sampled{e2e["allocs_per_unit"], "count", n}
	f["peak_heap_mib"] = sampled{e2e["peak_heap_mib"], "MiB", n}
	f["error_rate"] = sampled{ratio(o.failed, o.attempted), "ratio", o.attempted}
	o.metrics = e2e

	if tr != nil {
		var samples []map[string]float64
		for _, r := range traced {
			samples = append(samples, layerValues(r.Layers, r.Store))
		}
		o.metrics = mergeLayers(samples)
		cpuOf := func(r fleetRep) float64 { return r.CPU.Seconds() }
		o.metrics["obs.trace_overhead_ratio"] = medianOf(traced, cpuOf) / medianOf(plain, cpuOf)
		o.report.Notes = append(o.report.Notes,
			fmt.Sprintf("per-layer figures are medians over %d traced reps; every one of the %d kernels carries its own profiler, merged by package", len(traced), traced[0].Layers.Kernels))
	}
	return o, nil
}

func runIngestWorkload(w workload, seed int64, budget time.Duration, tr *Tracer, workDir string) (outcome, error) {
	spec := w.ingest(seed)
	o := outcome{report: report{Env: newEnv(1), Figures: map[string]sampled{}}}
	start := time.Now()
	t := time.Now()
	pools, tmplLayers, err := templatePools(spec, tr, workDir)
	if err != nil {
		return o, err
	}
	o.report.Figures["template_s"] = sampled{time.Since(t).Seconds(), "s", 1}
	setupS, err := timeSetups(setupSamples, func() (func(), error) {
		s, err := setupIngest(spec, pools, nil, 0, workDir)
		if err != nil {
			return nil, err
		}
		return s.close, nil
	})
	if err != nil {
		return o, err
	}

	const slice = 3 * time.Second
	plan := newRepPlan(start, budget, tr != nil)
	plain, traced, errs := runReps(&plan, tr, func(repTr *Tracer) (ingestRep, error) {
		rep, err := runIngestRep(spec, pools, slice, repTr, workDir)
		o.attempted += rep.Attempted
		o.failed += rep.Failed
		if err != nil {
			o.failed++
		}
		return rep, err
	})
	if !finish(&o, errs, len(plain), len(traced), tr != nil) {
		return o, nil
	}

	e2e := map[string]float64{
		"setup_s":         setupS,
		"cpu_ns_per_unit": medianOf(plain, func(r ingestRep) float64 { return float64(r.CPU.Nanoseconds()) / float64(r.Acked) }),
		"allocs_per_unit": medianOf(plain, func(r ingestRep) float64 { return float64(r.Allocs) / float64(r.Acked) }),
		"peak_heap_mib":   medianOf(plain, func(r ingestRep) float64 { return r.PeakMiB }),
	}
	o.metrics = e2e
	n := len(plain)
	var queries, ingests []float64
	for _, r := range plain {
		queries = append(queries, r.QueryMs...)
		ingests = append(ingests, r.IngestDueMs...)
	}
	f := o.report.Figures
	f["setup_s"] = sampled{e2e["setup_s"], "s", setupSamples}
	f["ingest_events_per_s"] = sampled{medianOf(plain, func(r ingestRep) float64 { return float64(r.Acked) / r.Span.Seconds() }), "events/s", n}
	f["cpu_ns_per_event"] = sampled{e2e["cpu_ns_per_unit"], "ns", n}
	f["allocs_per_event"] = sampled{e2e["allocs_per_unit"], "count", n}
	f["peak_heap_mib"] = sampled{e2e["peak_heap_mib"], "MiB", n}
	latency := func(name string, xs []float64) {
		f[name+"_p50_ms"] = sampled{quantile(xs, 0.5), "ms", len(xs)}
		tail := tailPercentile(len(xs))
		f[fmt.Sprintf("%s_p%s_ms", name, pctName(tail))] = sampled{quantile(xs, tail), "ms", len(xs)}
	}
	latency("query", queries)
	latency("ingest", ingests)
	f["error_rate"] = sampled{ratio(o.failed, o.attempted), "ratio", o.attempted}

	if tr != nil {
		var samples []map[string]float64
		for _, r := range traced {
			st := storeLayers{
				IngestMs: r.IngestMs, QueryMs: r.ServiceMs, EvalMs: r.EvalMs, LateMs: r.LateMs,
				Series: r.Series, Alerts: r.Alerts, EvalSeries: r.EvalSeries, Stats: r.Stats,
			}
			samples = append(samples, layerValues(tmplLayers, &st))
		}
		o.metrics = mergeLayers(samples)
		cpuPerEvent := func(r ingestRep) float64 { return r.CPU.Seconds() / float64(r.Acked) }
		o.metrics["obs.trace_overhead_ratio"] = medianOf(traced, cpuPerEvent) / medianOf(plain, cpuPerEvent)
		o.report.Notes = append(o.report.Notes,
			"fleet, simtime, radio, netsim, uisim, apps, controller, remedy and analyzer figures come from the template fleets that shape the stream; store and monitor figures are medians over traced reps")
	}
	return o, nil
}

// pctName renders a quantile as a percentile label: 0.99 → "99",
// 0.999 → "99.9".
func pctName(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1000)/10)
}

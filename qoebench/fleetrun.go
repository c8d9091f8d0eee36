package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/qoemon"
	"repro/internal/qoestore"
	"repro/internal/simtime"
)

// fleetCounts are the exact, deterministic counts of one fleet run.
type fleetCounts struct {
	Digest        string `json:"report_sha256"`
	Events        uint64 `json:"events"`
	Interventions int    `json:"interventions"`
	Handovers     int    `json:"handovers"`
}

// checkGolden compares a run's counts against the pinned ones.
func checkGolden(got, want fleetCounts) error {
	if got != want {
		return fmt.Errorf("fleet run drifted from golden: got %+v, want %+v", got, want)
	}
	return nil
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// fleetRep is one measured fleet run.
type fleetRep struct {
	Span    time.Duration // Drive → RunTo → CloseObs → Report → EmitReport
	CPU     time.Duration // process CPU time over Span
	Allocs  uint64        // heap allocations over Span
	PeakMiB float64
	Counts  fleetCounts
	RRC     int // RRC transitions over every UE
	UEs     int

	// Emitted holds the events delivered to the store, when asked for.
	Emitted []qoestore.Event

	// Traced reps only.
	Layers *fleetLayers
	Store  *storeLayers
}

// fleetLayers are one traced rep's per-layer figures.
type fleetLayers struct {
	Build, Run, CloseObs, Report, Emit time.Duration
	Workers, Kernels                   int
	Profile                            profileRollup
	CrossLayer, Flows, Attributions    time.Duration
	ULMapped, ULTotal                  int
	DLMapped, DLTotal                  int
	Packets, PDUs                      int
	Events                             uint64
	Interventions, Handovers, RRC      int
}

// add folds another traced run's figures into l.
func (l *fleetLayers) add(o *fleetLayers) {
	l.Build += o.Build
	l.Run += o.Run
	l.CloseObs += o.CloseObs
	l.Report += o.Report
	l.Emit += o.Emit
	// Folded runs ran one after another, so the parallelism is the
	// largest any of them had.
	l.Workers = max(l.Workers, o.Workers)
	l.Kernels = max(l.Kernels, o.Kernels)
	if l.Profile.Wall == nil {
		l.Profile.Wall = make(map[string]time.Duration)
	}
	for k, v := range o.Profile.Wall {
		l.Profile.Wall[k] += v
	}
	l.Profile.Total += o.Profile.Total
	l.Profile.Events += o.Profile.Events
	l.CrossLayer += o.CrossLayer
	l.Flows += o.Flows
	l.Attributions += o.Attributions
	l.ULMapped += o.ULMapped
	l.ULTotal += o.ULTotal
	l.DLMapped += o.DLMapped
	l.DLTotal += o.DLTotal
	l.Packets += o.Packets
	l.PDUs += o.PDUs
	l.Events += o.Events
	l.Interventions += o.Interventions
	l.Handovers += o.Handovers
	l.RRC += o.RRC
}

// storeLayers are the analytics-plane calls of one rep.
type storeLayers struct {
	IngestMs, QueryMs, EvalMs []float64 // call durations
	LateMs                    []float64 // open-loop generator lateness
	Series, Alerts            int
	EvalSeries                int
	Stats                     qoestore.StoreStats
}

// timedIngestor sits between an emitter (or the benchmark's own ingester)
// and the store: it counts what reaches the store per metric and, when
// traced, spans every Ingest call.
type timedIngestor struct {
	store  *qoestore.Store
	tr     *Tracer
	parent int
	keep   bool // keep a copy of every delivered event

	mu       sync.Mutex
	perMet   map[string]uint64
	ingestMs []float64
	kept     []qoestore.Event
}

func newTimedIngestor(s *qoestore.Store, tr *Tracer, parent int) *timedIngestor {
	return &timedIngestor{store: s, tr: tr, parent: parent, perMet: make(map[string]uint64)}
}

// Ingest implements qoestore.Ingestor.
func (t *timedIngestor) Ingest(evs []qoestore.Event) (qoestore.IngestReceipt, error) {
	sp := t.tr.Begin(t.parent, "qoestore", "Store.Ingest")
	t0 := time.Now()
	rc, err := t.store.Ingest(evs)
	d := time.Since(t0)
	t.tr.End(sp)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tr != nil {
		t.ingestMs = append(t.ingestMs, ms(d))
	}
	if err == nil && rc.Shed == 0 {
		for i := range evs {
			t.perMet[evs[i].Metric]++
		}
		if t.keep {
			t.kept = append(t.kept, evs...)
		}
	}
	return rc, err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// kernels returns every simulation kernel of the fleet.
func kernels(f *fleet.Fleet) []*simtime.Kernel {
	if len(f.Shards) == 0 {
		return []*simtime.Kernel{f.K}
	}
	ks := make([]*simtime.Kernel, len(f.Shards))
	for i, sh := range f.Shards {
		ks[i] = sh.K
	}
	return ks
}

// runFleetRep builds, runs, diagnoses and emits one fleet, then checks
// its outputs. With a tracer it also profiles every kernel, spans each
// layer call and re-times the analyzer's stages per UE.
func runFleetRep(spec fleetSpec, tr *Tracer, workDir string, keep bool) (fleetRep, error) {
	var rep fleetRep
	root := tr.Begin(0, "bench", "fleet-rep")
	defer tr.End(root)
	setup, err := setupFleet(spec, tr, root, workDir)
	if err != nil {
		return rep, err
	}
	defer setup.close()
	f, store := setup.f, setup.store

	var profs []*obs.Profiler
	if tr != nil {
		for _, k := range kernels(f) {
			p := obs.NewProfiler()
			k.SetProfiler(p)
			profs = append(profs, p)
		}
	}

	var lay fleetLayers
	lay.Build = setup.build
	call := func(layer, name string, d *time.Duration, fn func()) {
		sp := tr.Begin(root, layer, name)
		t := time.Now()
		fn()
		*d += time.Since(t)
		tr.End(sp)
	}
	heap := startHeapSampler()
	cpu0 := cpuTime()
	m0 := mallocs()
	t1 := time.Now()
	var report *fleet.Report
	call("fleet", "Drive", &lay.Run, f.Drive)
	call("fleet", "RunTo", &lay.Run, func() { f.RunTo(spec.Horizon) })
	call("fleet", "CloseObs", &lay.CloseObs, f.CloseObs)
	call("fleet", "Report", &lay.Report, func() { report = f.Report() })
	emitSpan := tr.Begin(root, "fleet", "EmitReport")
	ing := newTimedIngestor(store, tr, emitSpan)
	ing.keep = keep
	em, err := qoestore.NewEmitter(ing, qoestore.EmitterConfig{Source: "bench", QueueDepth: 1 << 20})
	if err != nil {
		return rep, err
	}
	emitted := fleet.EmitReport(em, f, report)
	em.Close()
	tr.End(emitSpan)
	rep.Span = time.Since(t1)
	rep.CPU = cpuTime() - cpu0
	rep.Allocs = mallocs() - m0
	rep.PeakMiB = heap.Stop()
	lay.Emit = rep.Span - lay.Run - lay.CloseObs - lay.Report

	rep.UEs = len(report.UEs)
	for _, k := range kernels(f) {
		rep.Counts.Events += k.Processed()
	}
	for _, u := range report.UEs {
		rep.Counts.Interventions += len(u.Interventions)
		rep.Counts.Handovers += u.Handovers
		rep.RRC += u.RRCTransitions
	}
	rep.Counts.Digest = digest(report.Render())

	// Correctness: the report covers every UE, the emitter delivered all
	// it was handed, and every delivered event is queryable.
	if rep.UEs != len(spec.Scen.UEs) {
		return rep, fmt.Errorf("report has %d UE rows, scenario has %d", rep.UEs, len(spec.Scen.UEs))
	}
	st := em.Stats()
	if st.Delivered != uint64(emitted) || st.DroppedQ+st.DroppedRe+st.Shed != 0 {
		return rep, fmt.Errorf("emitted %d events, emitter stats %+v", emitted, st)
	}
	post, err := postRunQueries(store, ing, tr, root)
	if err != nil {
		return rep, err
	}

	rep.Emitted = ing.kept
	if tr != nil {
		lay.Workers, lay.Kernels = spec.Workers, len(kernels(f))
		lay.Profile = rollUp(profs)
		lay.Events = rep.Counts.Events
		lay.Interventions, lay.Handovers, lay.RRC = rep.Counts.Interventions, rep.Counts.Handovers, rep.RRC
		timeAnalyzer(f, tr, root, &lay)
		post.IngestMs = ing.ingestMs
		rep.Layers, rep.Store = &lay, &post
	}
	return rep, nil
}

// fleetSetup is a built fleet and the fresh store its report goes to.
type fleetSetup struct {
	f     *fleet.Fleet
	store *qoestore.Store
	build time.Duration // fleet.Build alone
	dir   string
}

// close closes and removes the store.
func (s *fleetSetup) close() {
	s.store.Close()
	os.RemoveAll(s.dir)
}

// setupFleet builds the fleet and opens a fresh store for its report.
func setupFleet(spec fleetSpec, tr *Tracer, parent int, workDir string) (*fleetSetup, error) {
	t := time.Now()
	sp := tr.Begin(parent, "fleet", "Build")
	f, err := fleet.Build(spec.Scen, spec.options()...)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	s := &fleetSetup{f: f, build: time.Since(t)}
	if s.dir, err = os.MkdirTemp(workDir, "emit-"); err != nil {
		return nil, err
	}
	sp = tr.Begin(parent, "qoestore", "Open")
	s.store, err = qoestore.Open(s.dir, qoestore.Config{Retain: 1 << 20})
	tr.End(sp)
	if err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	return s, nil
}

// postRunQueries runs the dashboard side of a fleet run against its
// emit store: one qoemon evaluation, then one unfiltered query per metric
// issued open-loop at 1 ms intervals, each checked against the number of
// events the ingestor delivered for that metric.
func postRunQueries(store *qoestore.Store, ing *timedIngestor, tr *Tracer, parent int) (storeLayers, error) {
	var out storeLayers
	mon, err := newMonitor(store, []string{"mean_latency_s p95 < 5", "rrc_energy_j p95 < 50"})
	if err != nil {
		return out, err
	}
	sp := tr.Begin(parent, "qoemon", "Evaluate")
	t0 := time.Now()
	ev := mon.Evaluate()
	out.EvalMs = append(out.EvalMs, ms(time.Since(t0)))
	tr.End(sp)
	out.EvalSeries, out.Alerts = len(ev.Statuses), len(ev.Alerts)

	ing.mu.Lock()
	want := make(map[string]uint64, len(ing.perMet))
	for m, n := range ing.perMet {
		want[m] = n
	}
	ing.mu.Unlock()
	metricsSeen := store.Metrics()
	if len(metricsSeen) != len(want) {
		return out, fmt.Errorf("store holds %d metrics, %d were delivered", len(metricsSeen), len(want))
	}
	start := time.Now()
	for i, m := range metricsSeen {
		due := start.Add(time.Duration(i) * time.Millisecond)
		time.Sleep(time.Until(due))
		out.LateMs = append(out.LateMs, ms(time.Since(due)))
		sp := tr.Begin(parent, "qoestore", "Store.Run")
		t := time.Now()
		res, err := store.Run(qoestore.Query{Metric: m, Quantiles: []float64{0.5, 0.99}})
		out.QueryMs = append(out.QueryMs, ms(time.Since(t)))
		tr.End(sp)
		if err != nil {
			return out, err
		}
		if res.Count != want[m] {
			return out, fmt.Errorf("metric %s: store counts %d events, %d were delivered", m, res.Count, want[m])
		}
	}
	out.Stats = store.Stats()
	out.Series = countSeries(store, metricsSeen)
	return out, nil
}

// countSeries counts retained series keys over the given metrics.
func countSeries(store *qoestore.Store, metricNames []string) int {
	n := 0
	for _, m := range metricNames {
		n += len(store.SeriesCounts(m, 0))
	}
	return n
}

func newMonitor(store *qoestore.Store, specs []string) (*qoemon.Monitor, error) {
	var slos []qoemon.SLO
	for _, s := range specs {
		slo, err := qoemon.ParseSLO(s)
		if err != nil {
			return nil, err
		}
		slos = append(slos, slo)
	}
	return qoemon.New(store, qoemon.Config{SLOs: slos})
}

// timeAnalyzer re-runs each UE's analysis serially, outside the Report
// span, timing the analyzer's public stages one at a time.
func timeAnalyzer(f *fleet.Fleet, tr *Tracer, parent int, lay *fleetLayers) {
	for _, ue := range f.UEs {
		sess := ue.Session(ue.Log)
		var cl *analyzer.CrossLayer
		stage := func(name string, d *time.Duration, fn func()) {
			sp := tr.Begin(parent, "analyzer", name)
			t := time.Now()
			fn()
			*d += time.Since(t)
			tr.End(sp)
		}
		stage("NewCrossLayer", &lay.CrossLayer, func() { cl = analyzer.NewCrossLayer(sess) })
		stage("ExtractFlows", &lay.Flows, func() { analyzer.ExtractFlows(sess.Packets, sess.DeviceAddr) })
		stage("Attributions", &lay.Attributions, func() { cl.Attributions() })
		lay.ULMapped += cl.ULMap.Mapped
		lay.ULTotal += cl.ULMap.Total
		lay.DLMapped += cl.DLMap.Mapped
		lay.DLTotal += cl.DLMap.Total
		lay.Packets += len(sess.Packets)
		lay.PDUs += len(cl.ULPDUs) + len(cl.DLPDUs)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

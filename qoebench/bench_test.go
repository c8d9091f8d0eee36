package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/qoestore"
)

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		if w.fleet != nil {
			a, b, c := w.fleet(7), w.fleet(7), w.fleet(8)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: seed 7 generated two different fleets", w.name)
			}
			if reflect.DeepEqual(a.Scen.UEs, c.Scen.UEs) {
				t.Errorf("%s: seeds 7 and 8 generated the same UE population", w.name)
			}
			continue
		}
		a, b := w.ingest(7), w.ingest(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different specs", w.name)
		}
		pools := []metricPool{
			{Workload: "browse", Metric: "pageload_s", Values: []float64{0.5, 1.5, 2.5}},
			{Workload: "youtube", Metric: "rebuffer_ratio", Values: []float64{0, 0.1}},
		}
		c1, c2 := genCycle(a, pools), genCycle(b, pools)
		if !reflect.DeepEqual(c1, c2) {
			t.Errorf("%s: seed 7 generated two different stream cycles", w.name)
		}
		if reflect.DeepEqual(c1, genCycle(w.ingest(8), pools)) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream cycle", w.name)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: "fleet", Start: 0, End: 100},
		// Two overlapping children cover [10,50]; a third covers [60,70].
		{ID: 2, Parent: 1, Layer: "analyzer", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "analyzer", Start: 30, End: 50},
		{ID: 4, Parent: 1, Layer: "qoestore", Start: 60, End: 70},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 4, Layer: "qoemon", Start: 62, End: 66},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 30, 3: 20, 4: 6, 5: 4}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	layers := LayerSelf(spans)
	if layers["fleet"] != 50 || layers["analyzer"] != 50 || layers["qoestore"] != 6 || layers["qoemon"] != 4 {
		t.Errorf("layer self times = %v", layers)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *Tracer
	id := tr.Begin(0, "fleet", "Build")
	tr.End(id)
	if id != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr = NewTracer()
	root := tr.Begin(0, "bench", "rep")
	child := tr.Begin(root, "fleet", "RunTo")
	tr.End(child)
	tr.Begin(root, "fleet", "Report") // never closed
	tr.End(root)
	got := tr.Spans()
	if len(got) != 2 || got[0].ID != root || got[1].Parent != root {
		t.Fatalf("spans = %+v, want the root and its closed child only", got)
	}
}

func TestGoldenRejectsPerturbedReport(t *testing.T) {
	report := "== Fleet: 8 UE(s), pf scheduler, workload youtube, seed 42 ==\nue0 3 3 0.812s\n"
	want := fleetCounts{Digest: digest(report), Events: 1000, Interventions: 2, Handovers: 3}
	if err := checkGolden(want, want); err != nil {
		t.Fatalf("identical counts rejected: %v", err)
	}
	perturbed := want
	perturbed.Digest = digest(strings.Replace(report, "0.812s", "0.813s", 1))
	if checkGolden(perturbed, want) == nil {
		t.Error("a one-digit change in the report passed the digest check")
	}
	for _, bump := range []func(*fleetCounts){
		func(c *fleetCounts) { c.Events++ },
		func(c *fleetCounts) { c.Interventions++ },
		func(c *fleetCounts) { c.Handovers++ },
	} {
		c := want
		bump(&c)
		if checkGolden(c, want) == nil {
			t.Errorf("count drift %+v passed the check", c)
		}
	}
	for _, w := range workloads {
		if w.fleet == nil {
			continue
		}
		if _, err := goldenFor(w.name); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// smallIngest is a scaled-down ingest-query spec: windows roll over every
// 64 events and the store keeps 3 of them, so a short run evicts.
func smallIngest() (ingestSpec, []metricPool) {
	spec := ingestQuery(3)
	spec.Templates = nil
	spec.Batch, spec.CycleBatches = 32, 8
	spec.EventsPerWindow, spec.Retain = 64, 3
	spec.QueryEvery = time.Millisecond
	spec.BatchEvery = 200 * time.Microsecond
	spec.EvalEvery = 4
	pools := []metricPool{
		{Workload: "browse", Metric: "pageload_s", Values: []float64{0.5, 1.5, 4}},
		{Workload: "youtube", Metric: "initial_loading_s", Values: []float64{1, 6}},
		{Workload: "youtube", Metric: "attrib_radio_share", Values: []float64{0.2, 0.9}},
	}
	return spec, pools
}

func TestRetainedCountsMatchBruteForce(t *testing.T) {
	spec, pools := smallIngest()
	cycle := genCycle(spec, pools)
	batchOf := func(b int, buf []qoestore.Event) []qoestore.Event {
		c, i := b/spec.CycleBatches, b%spec.CycleBatches
		buf = append(buf[:0], cycle[i*spec.Batch:(i+1)*spec.Batch]...)
		for j := range buf {
			buf[j].At += time.Duration(c) * cycleSpan(spec)
		}
		return buf
	}
	for _, n := range []int{1, 5, 8, 19} {
		got := retainedCounts(spec, n, batchOf)
		var all []qoestore.Event
		for b := 0; b < n; b++ {
			all = append(all, batchOf(b, nil)...)
		}
		newest := int64(all[len(all)-1].At / spec.Window)
		want := map[string]uint64{}
		for _, ev := range all {
			if int64(ev.At/spec.Window) > newest-int64(spec.Retain) {
				want[ev.Metric]++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: retainedCounts = %v, brute force %v", n, got, want)
		}
	}
}

func TestIngestRepReferenceCountMatches(t *testing.T) {
	spec, pools := smallIngest()
	rep, err := runIngestRep(spec, pools, 300*time.Millisecond, NewTracer(), t.TempDir())
	if err != nil {
		t.Fatalf("ingest rep failed its correctness check: %v", err)
	}
	if rep.Batches == 0 || rep.Stats.Evicted == 0 || len(rep.QueryMs) == 0 || len(rep.EvalMs) == 0 {
		t.Errorf("rep did too little to test the check: %d batches, %d evicted, %d queries, %d evaluations",
			rep.Batches, rep.Stats.Evicted, len(rep.QueryMs), len(rep.EvalMs))
	}
}

func TestSiteLayer(t *testing.T) {
	for site, want := range map[string]string{
		"repro/internal/radio.(*Cell).txNext-fm":         "radio",
		"repro/internal/netsim.(*TCPConn).onRTO.func1":   "netsim",
		"repro/internal/uisim.(*Instrumentation).poll":   "uisim",
		"repro/internal/apps/youtube.(*App).play.func2":  "apps",
		"repro/internal/core/controller.(*C).tick.func1": "controller",
		"repro/internal/fleet.(*Fleet).Drive.func1":      "other",
		"runtime.goexit": "other",
	} {
		if got := siteLayer(site); got != want {
			t.Errorf("siteLayer(%q) = %q, want %q", site, got, want)
		}
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, program reports %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's table")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
}

func TestLayerValuesCoverPerLayerTable(t *testing.T) {
	v := layerValues(&fleetLayers{Run: time.Second, Workers: 1, Kernels: 1, Events: 10}, &storeLayers{EvalMs: []float64{1}})
	v["obs.trace_overhead_ratio"] = 1
	for _, d := range perLayer {
		if _, ok := v[d.Name]; !ok {
			t.Errorf("per-layer metric %s is never computed", d.Name)
		}
	}
	if len(v) != len(perLayer) {
		t.Errorf("layerValues computes %d metrics, the table names %d", len(v), len(perLayer))
	}
}

func TestTracedShardedFleetRep(t *testing.T) {
	spec := gridBrowse(5)
	spec.Scen.UEs = spec.Scen.UEs[:8]
	spec.Scen.Topology.Cells = 4
	spec.Horizon = 20 * time.Second
	tr := NewTracer()
	traced, err := runFleetRep(spec, tr, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runFleetRep(spec, nil, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Counts != plain.Counts {
		t.Errorf("tracing changed the run: %+v vs %+v", traced.Counts, plain.Counts)
	}
	lay := traced.Layers
	if lay == nil || lay.Kernels != 4 || lay.Profile.Events != traced.Counts.Events {
		t.Fatalf("profilers saw %d events on %v kernels, the run had %d", lay.Profile.Events, lay.Kernels, traced.Counts.Events)
	}
	v := layerValues(lay, traced.Store)
	if s := v["fleet.unprofiled_share"]; s <= 0 || s >= 1 {
		t.Errorf("unprofiled share %v outside (0,1)", s)
	}
	if v["qoestore.acked"] == 0 || v["analyzer.packets"] == 0 {
		t.Errorf("traced rep left the store or analyzer figures empty: %v", v)
	}
	if len(tr.Spans()) == 0 {
		t.Error("traced rep recorded no spans")
	}
}

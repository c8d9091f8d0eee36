package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	h := &Histogram{bounds: []float64{10, 20, 50}, counts: make([]uint64, 3)}
	for _, v := range []float64{1, 10, 11, 20, 49, 50, 51, 1000} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("Count = %d, want 8", h.Count())
	}
	if h.Sum() != 1192 {
		t.Fatalf("Sum = %v, want 1192", h.Sum())
	}
	// Bounds are inclusive upper edges: <=10 catches {1, 10}, <=20 adds
	// {11, 20}, <=50 adds {49, 50}; {51, 1000} land only in the implicit
	// overflow bucket.
	want := []Bucket{{LE: 10, Count: 2}, {LE: 20, Count: 4}, {LE: 50, Count: 6}}
	got := h.CumulativeBuckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if overflow := h.Count() - got[len(got)-1].Count; overflow != 2 {
		t.Errorf("overflow = %d, want 2", overflow)
	}
}

func TestRegistryDefaultBucketsAscending(t *testing.T) {
	for i := 1; i < len(DefBuckets); i++ {
		if DefBuckets[i] <= DefBuckets[i-1] {
			t.Fatalf("DefBuckets not strictly ascending at %d: %v", i, DefBuckets)
		}
	}
}

func TestRegistrySnapshotOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("zebra").Add(3)
	r.Histogram("mid_hist", 1, 10).Observe(5)
	r.Gauge("alpha").Set(1.5)
	r.GaugeFunc("beta_fn", func() float64 { return 42 })
	// Create-or-get: the same instrument comes back.
	if r.Counter("zebra") != r.Counter("zebra") {
		t.Fatal("Counter not idempotent")
	}
	r.Counter("zebra").Inc()

	s := r.Snapshot()
	var names []string
	for _, e := range s.Entries {
		names = append(names, e.Name)
	}
	want := []string{"alpha", "beta_fn", "mid_hist", "zebra"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("snapshot order = %v, want %v", names, want)
	}
	if e, ok := s.Get("zebra"); !ok || e.Value != 4 || e.Kind != "counter" {
		t.Fatalf("zebra = %+v, ok=%v", e, ok)
	}
	if e, _ := s.Get("beta_fn"); e.Value != 42 || e.Kind != "gauge" {
		t.Fatalf("beta_fn = %+v", e)
	}
	if e, _ := s.Get("mid_hist"); e.Kind != "histogram" || e.Count != 1 || len(e.Buckets) != 2 {
		t.Fatalf("mid_hist = %+v", e)
	}

	var buf bytes.Buffer
	if err := s.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("NDJSON line %d invalid: %s", i, line)
		}
	}
}

func TestNilSafety(t *testing.T) {
	// Every detached instrument absorbs calls without panicking.
	var tr *Trace
	tr.Bind(nil)
	tr.SetScope(7)
	tr.Instant(LayerApp, "x", 1)
	tr.CounterSample(LayerKernel, "q", 1)
	tr.Emit(TraceEvent{})
	sp := tr.Start(LayerUI, "click", tr.NewID())
	sp.Attr("k", "v")
	sp.End()
	sp.EndAt(time.Second)
	if tr.Len() != 0 || tr.Events() != nil || tr.Scope() != 0 || tr.NewID() != 0 || tr.Now() != 0 {
		t.Fatal("nil Trace leaked state")
	}
	if sp.Active() {
		t.Fatal("span from nil trace is active")
	}

	var c *Counter
	c.Inc()
	c.Add(5)
	var g *Gauge
	g.Set(1)
	var h *Histogram
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.CumulativeBuckets() != nil {
		t.Fatal("nil instruments leaked state")
	}

	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil Registry handed out live instruments")
	}
	r.GaugeFunc("x", func() float64 { return 1 })
	if len(r.Snapshot().Entries) != 0 {
		t.Fatal("nil Registry snapshot not empty")
	}

	var p *Profiler
	p.Observe("site", time.Millisecond)
	if p.Sites() != nil || p.Report(5) != "" {
		t.Fatal("nil Profiler leaked state")
	}
}

func TestSpanLifecycle(t *testing.T) {
	tr := NewTrace()
	var now time.Duration
	tr.Bind(func() time.Duration { return now })

	id := tr.NewID()
	sp := tr.Start(LayerApp, "load", id, Attr{"url", "u"})
	if !sp.Active() {
		t.Fatal("span not active after Start")
	}
	now = 250 * time.Millisecond
	sp.Attr("done", "yes")
	sp.End()
	if sp.Active() {
		t.Fatal("span still active after End")
	}
	sp.End() // idempotent
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (double End emitted twice?)", tr.Len())
	}
	ev := tr.Events()[0]
	if ev.Kind != KindSpan || ev.Name != "load" || ev.ID != id ||
		ev.Start != 0 || ev.End != 250*time.Millisecond || len(ev.Attrs) != 2 {
		t.Fatalf("event = %+v", ev)
	}

	sp2 := tr.Start(LayerRadio, "rrc:DCH", tr.Scope())
	sp2.EndAt(time.Second)
	if got := tr.Events()[1].End; got != time.Second {
		t.Fatalf("EndAt end = %v", got)
	}
}

func TestScopeCorrelation(t *testing.T) {
	tr := NewTrace()
	id := tr.NewID()
	tr.SetScope(id)
	tr.Instant(LayerTransport, "tcp:retx", tr.Scope())
	sp := tr.Start(LayerUI, "click", tr.Scope())
	sp.End()
	evs := tr.Events()
	if evs[0].ID != id || evs[1].ID != id {
		t.Fatalf("scope not propagated: %d, %d != %d", evs[0].ID, evs[1].ID, id)
	}
}

func TestWriteChromeTraceValidAndDeterministic(t *testing.T) {
	tr := NewTrace()
	var now time.Duration
	tr.Bind(func() time.Duration { return now })
	sp := tr.Start(LayerUI, `quoted "name"`, tr.NewID(), Attr{"k", `v"w`})
	now = 1500 * time.Nanosecond
	sp.End()
	tr.Instant(LayerTransport, "tcp:retx", 2, Attr{"seq", "9"})
	tr.CounterSample(LayerKernel, "queue_depth", 3.25)

	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated export differs")
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, a.String())
	}
	// 5 layers x 2 metadata records + 3 events.
	if len(doc.TraceEvents) != 13 {
		t.Fatalf("traceEvents = %d, want 13", len(doc.TraceEvents))
	}
	byPh := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byPh[ev.Ph]++
	}
	if byPh["M"] != 10 || byPh["X"] != 1 || byPh["i"] != 1 || byPh["C"] != 1 {
		t.Fatalf("phase counts = %v", byPh)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			if ev.Name != `quoted "name"` || ev.Tid != 1 || ev.Dur != 1.5 {
				t.Fatalf("span event = %+v", ev)
			}
			if ev.Args["k"] != `v"w` || ev.Args["id"] != float64(1) {
				t.Fatalf("span args = %v", ev.Args)
			}
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tr := NewTrace()
	tr.Instant(LayerApp, "with,comma", 4, Attr{"a", "1"}, Attr{"b", "2"})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != "kind,layer,name,start_ns,end_ns,id,value,attrs" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != `instant,app,"with,comma",0,0,4,0,a=1;b=2` {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestProfiler(t *testing.T) {
	p := NewProfiler()
	p.Observe("a", 2*time.Millisecond)
	p.Observe("b", 5*time.Millisecond)
	p.Observe("a", time.Millisecond)
	sites := p.Sites()
	if len(sites) != 2 || sites[0].Site != "b" || sites[1].Site != "a" {
		t.Fatalf("sites = %+v (want wall-descending)", sites)
	}
	if sites[1].Count != 2 || sites[1].Wall != 3*time.Millisecond {
		t.Fatalf("site a = %+v", sites[1])
	}
	if rep := p.Report(1); !strings.Contains(rep, "b") {
		t.Fatalf("report = %q", rep)
	}

	q := NewProfiler()
	q.Observe("a", 4*time.Millisecond)
	q.Observe("c", time.Millisecond)
	p.Merge(q)
	p.Merge(nil)
	sites = p.Sites()
	if len(sites) != 3 || sites[0].Site != "a" || sites[0].Count != 3 || sites[0].Wall != 7*time.Millisecond {
		t.Fatalf("merged sites = %+v", sites)
	}
	if q.Sites()[0].Count != 1 {
		t.Fatal("Merge modified its argument")
	}
}

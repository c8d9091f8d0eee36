package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/qoemon"
	"repro/internal/qoestore"
)

// templatePools runs the template fleets and groups the events they
// delivered by (workload, metric), in a deterministic order. With a
// tracer, the runs' per-layer figures are summed into the returned
// layers.
func templatePools(spec ingestSpec, tr *Tracer, workDir string) ([]metricPool, *fleetLayers, error) {
	var pools []metricPool
	var lay *fleetLayers
	for _, ts := range spec.Templates {
		rep, err := runFleetRep(ts, tr, workDir, true)
		if err != nil {
			return nil, nil, fmt.Errorf("template %s fleet: %w", ts.Scen.Workload.Name(), err)
		}
		if rep.Layers != nil {
			if lay == nil {
				lay = &fleetLayers{}
			}
			lay.add(rep.Layers)
		}
		byMetric := make(map[string][]float64)
		for _, ev := range rep.Emitted {
			byMetric[ev.Metric] = append(byMetric[ev.Metric], ev.Value)
		}
		for _, m := range sortedKeys(byMetric) {
			pools = append(pools, metricPool{Workload: ts.Scen.Workload.Name(), Metric: m, Values: byMetric[m]})
		}
	}
	if len(pools) == 0 {
		return nil, nil, fmt.Errorf("template fleets emitted no events")
	}
	return pools, lay, nil
}

// ingestRep is one measured slice of the ingest-query workload.
type ingestRep struct {
	Span    time.Duration
	CPU     time.Duration
	Allocs  uint64
	PeakMiB float64
	Acked   uint64
	Batches int
	// Open-loop query latency from each query's due time, service time
	// and generator lateness, and ingest latency from each batch's due
	// time, in ms.
	QueryMs, ServiceMs, LateMs []float64
	IngestDueMs                []float64
	EvalMs                     []float64
	IngestMs                   []float64
	EvalSeries, Alerts         int
	Series                     int
	Stats                      qoestore.StoreStats
	Failed, Attempted          int
}

// runIngestRep opens a fresh store and, for slice of wall time, ingests
// the replayed stream at the paced rate on one goroutine while another issues
// filtered quantile queries open-loop and evaluates the SLOs every
// EvalEvery batches. It then checks every metric's unfiltered count
// against the generated events still in retained windows.
func runIngestRep(spec ingestSpec, pools []metricPool, slice time.Duration, tr *Tracer, workDir string) (ingestRep, error) {
	var rep ingestRep
	root := tr.Begin(0, "bench", "ingest-rep")
	defer tr.End(root)

	setup, err := setupIngest(spec, pools, tr, root, workDir)
	if err != nil {
		return rep, err
	}
	defer setup.close()
	store, cycle, mon := setup.store, setup.cycle, setup.mon

	ing := newTimedIngestor(store, tr, root)
	var batches atomic.Int64
	var stop atomic.Bool
	var maxAt atomic.Int64 // latest event time acked, for the queries' range
	var wg sync.WaitGroup
	var ingestErr error
	// The replay ledger: batch b of the stream is cycle b/CycleBatches,
	// batch b%CycleBatches, shifted by whole cycles of event time.
	span := cycleSpan(spec)
	batchOf := func(b int, buf []qoestore.Event) []qoestore.Event {
		c, i := b/spec.CycleBatches, b%spec.CycleBatches
		buf = append(buf[:0], cycle[i*spec.Batch:(i+1)*spec.Batch]...)
		for j := range buf {
			buf[j].Source = "bench"
			buf[j].Seq = uint64(b*spec.Batch + j + 1)
			buf[j].At += time.Duration(c) * span
		}
		return buf
	}

	heap := startHeapSampler()
	cpu0 := cpuTime()
	m0 := mallocs()
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]qoestore.Event, 0, spec.Batch)
		for b := 0; !stop.Load(); b++ {
			due := start.Add(time.Duration(b) * spec.BatchEvery)
			time.Sleep(time.Until(due))
			buf = batchOf(b, buf)
			rc, err := ing.Ingest(buf)
			rep.IngestDueMs = append(rep.IngestDueMs, ms(time.Since(due)))
			if err != nil || rc.Shed > 0 || rc.Dups > 0 {
				ingestErr = fmt.Errorf("batch %d: receipt %+v, err %v", b, rc, err)
				stop.Store(true)
				return
			}
			maxAt.Store(int64(buf[len(buf)-1].At))
			batches.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(spec.Seed ^ 0x9e77))
		nextEval := int64(spec.EvalEvery)
		for k := 0; !stop.Load(); k++ {
			due := start.Add(time.Duration(k) * spec.QueryEvery)
			time.Sleep(time.Until(due))
			rep.LateMs = append(rep.LateMs, ms(time.Since(due)))
			if batches.Load() >= nextEval {
				nextEval += int64(spec.EvalEvery)
				sp := tr.Begin(root, "qoemon", "Evaluate")
				t := time.Now()
				ev := mon.Evaluate()
				rep.EvalMs = append(rep.EvalMs, ms(time.Since(t)))
				tr.End(sp)
				rep.EvalSeries, rep.Alerts = len(ev.Statuses), len(ev.Alerts)
			}
			p := pools[rng.Intn(len(pools))]
			q := qoestore.Query{
				Metric:    p.Metric,
				Cell:      fmt.Sprintf("cell%d", rng.Intn(spec.Cells)),
				Quantiles: []float64{0.5, 0.95, 0.99},
				From:      time.Duration(maxAt.Load()) - time.Duration(spec.Retain/2)*spec.Window,
			}
			if rng.Intn(2) == 0 {
				q.Cohort = spec.Cohorts[rng.Intn(len(spec.Cohorts))]
			}
			sp := tr.Begin(root, "qoestore", "Store.Run")
			t := time.Now()
			_, err := store.Run(q)
			end := time.Now()
			tr.End(sp)
			rep.ServiceMs = append(rep.ServiceMs, ms(end.Sub(t)))
			rep.QueryMs = append(rep.QueryMs, ms(end.Sub(due)))
			rep.Attempted++
			if err != nil {
				rep.Failed++
			}
		}
	}()
	time.Sleep(slice)
	stop.Store(true)
	wg.Wait()
	rep.Span = time.Since(start)
	rep.CPU = cpuTime() - cpu0
	rep.Allocs = mallocs() - m0
	rep.PeakMiB = heap.Stop()
	rep.Batches = int(batches.Load())
	rep.Attempted += rep.Batches + len(rep.EvalMs)
	rep.IngestMs = ing.ingestMs
	rep.Stats = store.Stats()
	rep.Acked = rep.Stats.Acked
	if ingestErr != nil {
		return rep, ingestErr
	}
	if rep.Stats.Rejected+rep.Stats.Shed != 0 || rep.Acked != uint64(rep.Batches*spec.Batch) {
		return rep, fmt.Errorf("store acked %d of %d events (stats %+v)", rep.Acked, rep.Batches*spec.Batch, rep.Stats)
	}

	// Correctness: recount the replayed batches still inside retained
	// windows and compare per metric with the store's unfiltered counts.
	want := retainedCounts(spec, rep.Batches, batchOf)
	names := store.Metrics()
	rep.Series = countSeries(store, names)
	if len(names) != len(want) {
		return rep, fmt.Errorf("store holds %d metrics, %d expected in retained windows", len(names), len(want))
	}
	for _, m := range names {
		res, err := store.Run(qoestore.Query{Metric: m})
		if err != nil {
			return rep, err
		}
		if res.Count != want[m] {
			return rep, fmt.Errorf("metric %s: store counts %d events in retained windows, %d were generated", m, res.Count, want[m])
		}
	}
	return rep, nil
}

// ingestSetup is a fresh store, one generated cycle of the stream and the
// SLO monitor over the store.
type ingestSetup struct {
	store *qoestore.Store
	cycle []qoestore.Event
	mon   *qoemon.Monitor
	dir   string
}

func (s *ingestSetup) close() {
	s.store.Close()
	os.RemoveAll(s.dir)
}

// setupIngest opens the store and generates the stream: the work setup_s
// measures on ingest-query.
func setupIngest(spec ingestSpec, pools []metricPool, tr *Tracer, parent int, workDir string) (*ingestSetup, error) {
	s := &ingestSetup{}
	var err error
	if s.dir, err = os.MkdirTemp(workDir, "store-"); err != nil {
		return nil, err
	}
	sp := tr.Begin(parent, "qoestore", "Open")
	s.store, err = qoestore.Open(s.dir, qoestore.Config{Window: spec.Window, Retain: spec.Retain})
	tr.End(sp)
	if err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	s.cycle = genCycle(spec, pools)
	if s.mon, err = newMonitor(s.store, spec.SLOs); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// retainedCounts counts, per metric, the events of the first n replayed
// batches whose window is among the Retain newest. Event time never
// decreases along the stream, so those windows are the last Retain
// indexes and the scan walks back from the end.
func retainedCounts(spec ingestSpec, n int, batchOf func(int, []qoestore.Event) []qoestore.Event) map[string]uint64 {
	want := make(map[string]uint64)
	if n == 0 {
		return want
	}
	var buf []qoestore.Event
	last := batchOf(n-1, buf)
	newest := int64(last[len(last)-1].At / spec.Window)
	oldest := newest - int64(spec.Retain) + 1
	for b := n - 1; b >= 0; b-- {
		buf = batchOf(b, buf)
		done := false
		for i := len(buf) - 1; i >= 0; i-- {
			if int64(buf[i].At/spec.Window) < oldest {
				done = true
				break
			}
			want[buf[i].Metric]++
		}
		if done {
			break
		}
	}
	return want
}

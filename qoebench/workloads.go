package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fleet"
	"repro/internal/qoestore"
	"repro/internal/radio"
)

// defaultSeed is the seed whose fleet reports are pinned in golden.json.
const defaultSeed = 1

// workload is one benchmark input set. Exactly one of fleet and ingest is
// set.
type workload struct {
	name   string
	why    string
	fleet  func(seed int64) fleetSpec
	ingest func(seed int64) ingestSpec
}

var workloads = []workload{
	{
		name:  "grid-browse",
		why:   "128 UEs roaming 16 cells at 14 m/s on 2 shard workers: lockstep parallelism, handover and moderate analysis",
		fleet: gridBrowse,
	},
	{
		name:  "storm-remedy",
		why:   "128 UEs on 16 cells throttled to 40 kbps with remediation on 1 worker: uisim polling and the remedy control plane",
		fleet: stormRemedy,
	},
	{
		name:  "yt-3g-diagnose",
		why:   "8 UEs watching YouTube on one 3G cell with full logs: single-kernel path, radio/netsim and the 3G long-jump mapper",
		fleet: yt3GDiagnose,
	},
	{
		name:   "ingest-query",
		why:    "fsync'd ingest paced at 100k events/s beside open-loop filtered queries and SLO evaluation on one store lock",
		ingest: ingestQuery,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// fleetSpec is a generated fleet workload: the scenario plus the run
// options the benchmark passes to fleet.Build.
type fleetSpec struct {
	Scen    fleet.Scenario
	Horizon time.Duration
	Workers int
	// Trace turns on per-UE trace buses, so EmitReport streams app spans.
	Trace bool
}

// options are the run options the benchmark builds the fleet with.
func (s fleetSpec) options() []fleet.Option {
	opts := []fleet.Option{fleet.WithHorizon(s.Horizon), fleet.WithWorkers(s.Workers)}
	if s.Trace {
		opts = append(opts, fleet.WithTrace())
	}
	return opts
}

// modelSeed is the scenario seed of every fleet the benchmark builds. The
// scenario seed picks each UE's content (which video, which page) and
// mobility path; with eight UEs on yt-3g-diagnose those picks alone swing
// a run's work by a tenth between seeds. So the benchmark seed draws the
// UE population (gains, arrival jitter, cohorts) and the ingest stream,
// while the content a given UE fetches stays fixed.
const modelSeed = 42

// cohorts label UE population segments in emitted events.
var cohorts = []string{"premium", "standard", "edge-of-cell", "iot"}

// seededUEs draws n UE specs from rng: gains spread uniformly over
// [0.7, 1.3], arrivals staggered every stagger per group of `group` UEs
// with up to 500ms of jitter, and a cohort per UE.
func seededUEs(rng *rand.Rand, n, group int, stagger time.Duration) []fleet.UESpec {
	ues := fleet.UniformUEs(n)
	for i := range ues {
		ues[i].Gain = 0.7 + 0.6*rng.Float64()
		ues[i].StartAt = time.Duration(i/group)*stagger + time.Duration(rng.Int63n(int64(500*time.Millisecond)))
		ues[i].Cohort = cohorts[rng.Intn(len(cohorts))]
	}
	return ues
}

const gridCells = 16

// gridHorizon covers two page loads per UE after the last arrival group.
func gridHorizon(n int) time.Duration {
	return 2*time.Minute + time.Duration(n/gridCells)*1500*time.Millisecond
}

func gridBrowse(seed int64) fleetSpec {
	const n = 128
	rng := rand.New(rand.NewSource(seed))
	return fleetSpec{
		Scen: fleet.Scenario{
			Seed:     modelSeed,
			Cell:     fleet.CellSpec{Policy: radio.SchedRoundRobin},
			Topology: &fleet.TopologySpec{Cells: gridCells},
			Mobility: &fleet.MobilitySpec{SpeedMps: 14},
			UEs:      seededUEs(rng, n, gridCells, 1500*time.Millisecond),
			Workload: fleet.BrowseWorkload{Pages: 2, ThinkTime: 6 * time.Second},
		},
		Horizon: gridHorizon(n),
		Workers: 2,
	}
}

func stormRemedy(seed int64) fleetSpec {
	const n = 128
	rng := rand.New(rand.NewSource(seed))
	ues := seededUEs(rng, n, gridCells, 1500*time.Millisecond)
	for i := range ues {
		ues[i].ThrottleBps = 40e3
		ues[i].DisablePcap = true
		ues[i].DisableQxDM = true
	}
	return fleetSpec{
		Scen: fleet.Scenario{
			Seed:     modelSeed,
			Cell:     fleet.CellSpec{Policy: radio.SchedRoundRobin},
			Topology: &fleet.TopologySpec{Cells: gridCells},
			UEs:      ues,
			Workload: fleet.BrowseWorkload{Pages: 2, ThinkTime: 6 * time.Second},
			Remedy:   &fleet.RemedySpec{},
		},
		Horizon: gridHorizon(n),
		Workers: 1,
	}
}

func yt3GDiagnose(seed int64) fleetSpec {
	rng := rand.New(rand.NewSource(seed))
	return fleetSpec{
		Scen: fleet.Scenario{
			Seed:     modelSeed,
			Cell:     fleet.CellSpec{Profile: radio.Profile3G(), Policy: radio.SchedPropFair},
			UEs:      seededUEs(rng, 8, 1, 2*time.Second),
			Workload: fleet.YouTubeWorkload{Videos: 2},
		},
		Horizon: 5 * time.Minute,
		Workers: 1,
		Trace:   true,
	}
}

// ingestSpec is the generated analytics-plane workload.
type ingestSpec struct {
	Seed int64
	// Cells x Workloads x Cohorts x each workload's emitted metric names
	// is the key space of the stream.
	Cells   int
	Cohorts []string
	// Templates are small fleet runs whose EmitReport output fixes the
	// workload names, their metric names and each metric's values.
	Templates []fleetSpec
	// Batch is the ingester's batch size; CycleBatches batches make one
	// generated cycle, replayed with its event times shifted by whole
	// cycles each time round.
	Batch, CycleBatches int
	// BatchEvery paces the ingester: batch b is due at b*BatchEvery, and
	// one batch is in flight at a time, so a store that falls behind
	// turns the pacing into a closed loop. The pace sits below the
	// slowest fsync'd rate seen on the reference machine (~260k events/s)
	// because closed-loop throughput there swings twofold between runs
	// with fsync latency; a fixed offered load keeps the CPU cost per
	// event comparable.
	BatchEvery time.Duration
	// Window and Retain configure the store; the stream advances
	// EventsPerWindow events per window, so eviction keeps the store at
	// Retain windows.
	Window          time.Duration
	Retain          int
	EventsPerWindow int
	// QueryEvery is the open-loop query interval; EvalEvery is the batch
	// cadence of qoemon evaluations.
	QueryEvery time.Duration
	EvalEvery  int
	// SLOs are the qoemon objectives, in ParseSLO form.
	SLOs []string
}

func ingestQuery(seed int64) ingestSpec {
	rng := rand.New(rand.NewSource(seed))
	lte := func(w fleet.Workload, horizon time.Duration) fleetSpec {
		return fleetSpec{
			Scen: fleet.Scenario{
				Seed:     modelSeed,
				UEs:      seededUEs(rng, 2, 1, time.Second),
				Workload: w,
			},
			Horizon: horizon,
			Workers: 1,
			Trace:   true,
		}
	}
	return ingestSpec{
		Seed:    seed,
		Cells:   16,
		Cohorts: cohorts,
		Templates: []fleetSpec{
			lte(fleet.BrowseWorkload{Pages: 2, ThinkTime: 5 * time.Second}, time.Minute),
			lte(fleet.FacebookWorkload{Updates: 2}, time.Minute),
			lte(fleet.YouTubeWorkload{Videos: 1}, 2*time.Minute),
		},
		Batch:           256,
		CycleBatches:    256,
		BatchEvery:      2560 * time.Microsecond, // 100k events/s
		Window:          time.Minute,
		Retain:          8,
		EventsPerWindow: 4096,
		QueryEvery:      10 * time.Millisecond,
		EvalEvery:       64,
		SLOs: []string{
			"pageload_s p95 < 3",
			"initial_loading_s p90 < 4",
			"attrib_radio_share p95 < 0.6",
		},
	}
}

// metricPool is one (workload, metric) template: the values EmitReport
// produced for it.
type metricPool struct {
	Workload, Metric string
	Values           []float64
}

// genCycle generates one cycle of the stream: CycleBatches batches of
// Batch events in ascending event time, keys drawn uniformly over the key
// space and values resampled from the template pools. Source and Seq are
// left for the replay to stamp.
func genCycle(spec ingestSpec, pools []metricPool) []qoestore.Event {
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5eed))
	n := spec.Batch * spec.CycleBatches
	step := spec.Window / time.Duration(spec.EventsPerWindow)
	evs := make([]qoestore.Event, n)
	for i := range evs {
		p := pools[rng.Intn(len(pools))]
		evs[i] = qoestore.Event{
			At:       time.Duration(i) * step,
			Cell:     fmt.Sprintf("cell%d", rng.Intn(spec.Cells)),
			Workload: p.Workload,
			Cohort:   spec.Cohorts[rng.Intn(len(spec.Cohorts))],
			Metric:   p.Metric,
			Value:    p.Values[rng.Intn(len(p.Values))],
		}
	}
	return evs
}

// cycleSpan is the event-time length of one cycle; it must be a whole
// number of windows so replays land in fresh windows.
func cycleSpan(spec ingestSpec) time.Duration {
	return time.Duration(spec.Batch*spec.CycleBatches/spec.EventsPerWindow) * spec.Window
}

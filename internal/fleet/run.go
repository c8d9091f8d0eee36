package fleet

import (
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/simtime"
)

// Fleet is an assembled multi-UE lab. In the legacy single-cell mode one
// kernel and one shared cell host every UE (K and Cell are set, Shards is
// nil). With a multi-cell Topology the fleet is sharded — one kernel per
// cell, advanced in lockstep epochs (Shards is set, K and Cell are nil).
// Build it from a Scenario, Drive the workload (or drive the UEs
// yourself), RunTo the horizon, then Report.
type Fleet struct {
	K    *simtime.Kernel
	Cell *radio.Cell
	UEs  []*UE
	// Shards and Topo are set for multi-cell scenarios: one shard per
	// topology cell, synchronized at X2Latency lookahead barriers.
	Shards []*Shard
	Topo   *radio.Topology
	// Profiler is the wall-clock kernel profiler (nil unless WithProfiler).
	// Sharded runs profile every shard kernel separately, and RunTo
	// replaces Profiler with their merge when it returns.
	Profiler *obs.Profiler

	scen Scenario
	opts options
	// airUL/airDL[c][s] is the barrier scratch for cell c's airtime on
	// shard s over the last epoch.
	airUL, airDL [][]simtime.Time

	// controlState is the runtime-control surface: registered control
	// hooks, the built-in remediation controller, and the cross-shard
	// action mailbox (see control.go).
	controlState
}

// Build assembles a fleet without running it. UEs are constructed in spec
// order; UE i lives at BaseAddr+i and its bearer is attached to the shared
// cell in the same order, which is also the scheduler's tie-break order.
func Build(scen Scenario, opts ...Option) (*Fleet, error) {
	if err := scen.validate(); err != nil {
		return nil, err
	}
	o := resolveOptions(opts)
	if scen.sharded() {
		return buildSharded(scen, o)
	}
	prof := scen.Cell.Profile
	if prof == nil {
		prof = radio.ProfileLTE()
	}
	coreDelay := scen.Cell.CoreDelay
	if coreDelay == 0 {
		coreDelay = defaultCoreDelay(prof.Tech)
	}

	k := simtime.NewKernel(scen.Seed)
	cell := radio.NewCell(k, scen.Cell.Policy)
	f := &Fleet{K: k, Cell: cell, scen: scen, opts: o}
	addr := BaseAddr
	for i, spec := range scen.UEs {
		ue := buildUE(k, cell, prof, coreDelay, i, addr, spec, scen.Seed, o, len(scen.UEs) == 1)
		f.UEs = append(f.UEs, ue)
		addr = addr.Next()
	}
	if o.profiler {
		f.Profiler = obs.NewProfiler()
		k.SetProfiler(f.Profiler)
		for _, ue := range f.UEs {
			ue.Profiler = f.Profiler
		}
	}
	return f, nil
}

// Drive starts the scenario workload on every UE: immediately (in UE
// order) for UEs with no start offset, via a kernel timer otherwise. A nil
// workload is a no-op — the caller drives the UEs itself.
func (f *Fleet) Drive() {
	if f.scen.Workload == nil {
		return
	}
	for i, ue := range f.UEs {
		spec := f.scen.UEs[i]
		if spec.StartAt <= 0 {
			f.scen.Workload.Start(ue)
			continue
		}
		u := ue
		ue.K.At(simtime.Time(spec.StartAt), func() { f.scen.Workload.Start(u) })
	}
}

// RunTo advances the simulation to the horizon: directly on the single
// kernel, or in parallel lockstep epochs (window = X2 latency) across the
// shards. Sharded results are byte-identical at any worker count.
func (f *Fleet) RunTo(horizon time.Duration) {
	f.installControl()
	if len(f.Shards) == 0 {
		f.K.RunUntil(horizon)
		return
	}
	kernels := make([]*simtime.Kernel, len(f.Shards))
	for i, sh := range f.Shards {
		kernels[i] = sh.K
	}
	ls := simtime.NewLockstep(kernels, f.opts.workers)
	defer ls.Close()
	ls.Run(horizon, f.Topo.X2Latency, func(end simtime.Time) {
		f.exchange(end)
		f.deliverCrossShard(end)
	})
	if f.Profiler != nil {
		merged := obs.NewProfiler()
		for _, sh := range f.Shards {
			merged.Merge(sh.prof)
		}
		f.Profiler = merged
	}
}

// now returns the current virtual time across either mode.
func (f *Fleet) now() simtime.Time {
	if f.K != nil {
		return f.K.Now()
	}
	return f.Shards[0].K.Now()
}

// CloseObs finalizes every UE's open observability state. Idempotent.
func (f *Fleet) CloseObs() {
	for _, ue := range f.UEs {
		ue.CloseObs()
	}
}

// Run builds the fleet, drives the workload, runs the kernel to the
// horizon, and analyzes every UE — the one-call entry point behind
// qoefleet and the fleet experiments.
func Run(scen Scenario, opts ...Option) (*Report, error) {
	f, err := Build(scen, opts...)
	if err != nil {
		return nil, err
	}
	f.Drive()
	f.RunTo(f.opts.horizon)
	f.CloseObs()
	return f.Report(), nil
}

// Report analyzes every UE's collected logs (cross-layer analyses fan out
// across goroutines; each is a pure function of its UE's session, so the
// fan-out cannot perturb results) and assembles the fleet report.
func (f *Fleet) Report() *Report {
	pending := make([]*analyzer.Pending, len(f.UEs))
	for i, ue := range f.UEs {
		pending[i] = ue.AnalyzeAsync(ue.Log)
	}
	now := f.now()
	r := &Report{
		Seed:     f.scen.Seed,
		Policy:   f.scen.Cell.Policy,
		Cells:    f.scen.cellCount(),
		Horizon:  now,
		Workload: "(caller-driven)",
	}
	if f.scen.Workload != nil {
		r.Workload = f.scen.Workload.Name()
	}
	for i, ue := range f.UEs {
		r.UEs = append(r.UEs, ueReport(ue, pending[i].Wait(), now))
	}
	r.aggregate()
	return r
}

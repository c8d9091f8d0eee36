package fleet

import (
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/simtime"
)

// Fleet is an assembled multi-UE lab: one shard per cell, each shard an
// event kernel hosting the UEs homed on that cell, advanced in lockstep
// epochs. Build it from a Scenario, Drive the workload (or drive the UEs
// yourself), RunTo the horizon, then Report.
type Fleet struct {
	// K is Shards[0].K for a one-cell fleet, so a caller can drive its only
	// kernel directly; nil when the fleet is sharded across cells.
	K   *simtime.Kernel
	UEs []*UE
	// Shards holds one shard per cell. Topo is the multi-cell grid (nil for
	// one cell); its X2 latency is the lockstep lookahead between shards.
	Shards []*Shard
	Topo   *radio.Topology
	// Profiler is the wall-clock kernel profiler (nil unless WithProfiler).
	// Every shard kernel is profiled separately, and RunTo replaces
	// Profiler with their merge when it returns.
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

// Build assembles a fleet without running it: one shard per cell, UE i
// homed on cell i mod Cells, every shard holding local instances of all
// cells for kernel-local handover. UEs are constructed in spec order; UE i
// lives at BaseAddr+i and its bearer attaches to its home cell in the same
// order, which is also the scheduler's tie-break order.
func Build(scen Scenario, opts ...Option) (*Fleet, error) {
	if err := scen.validate(); err != nil {
		return nil, err
	}
	o := resolveOptions(opts)
	prof := scen.Cell.Profile
	if prof == nil {
		prof = radio.ProfileLTE()
	}
	coreDelay := scen.Cell.CoreDelay
	if coreDelay == 0 {
		coreDelay = defaultCoreDelay(prof.Tech)
	}

	f := &Fleet{scen: scen, opts: o}
	ncells := scen.cellCount()
	if ncells > 1 {
		ts := scen.Topology
		f.Topo = radio.NewGridTopology(ts.Cells, ts.SpacingM)
		if ts.X2Latency > 0 {
			f.Topo.X2Latency = ts.X2Latency
		}
		if ts.PathLossExp > 0 {
			f.Topo.PathLossExp = ts.PathLossExp
		}
	}
	for s := 0; s < ncells; s++ {
		// A one-cell fleet's kernel runs on the scenario seed itself.
		seed := scen.Seed
		if ncells > 1 {
			seed = shardSeed(scen.Seed, s)
		}
		sh := &Shard{Index: s, K: simtime.NewKernel(seed)}
		for c := 0; c < ncells; c++ {
			sh.Cells = append(sh.Cells, radio.NewCellID(sh.K, scen.Cell.Policy, c))
		}
		f.Shards = append(f.Shards, sh)
	}
	if ncells == 1 {
		f.K = f.Shards[0].K
	}

	addr := BaseAddr
	for i, spec := range scen.UEs {
		s := i % ncells
		sh := f.Shards[s]
		home := s

		var mover *radio.Mover
		deviceGain := spec.Gain
		if deviceGain <= 0 {
			deviceGain = 1
		}
		buildSpec := spec
		if scen.Mobility != nil {
			u, v := uePos(scen.Seed, i)
			x, y := f.Topo.HomePos(home, u, v)
			mover = radio.NewMover(scen.Seed, i, f.Topo, scen.Mobility.SpeedMps, x, y)
			// The bearer's initial gain is the path gain at the spawn point
			// composed with the spec's device-quality multiplier; the roamer
			// refreshes it every measurement tick.
			buildSpec.Gain = f.Topo.Gain(home, x, y) * deviceGain
		}

		ue := buildUE(sh.K, sh.Cells[home], prof, coreDelay, i, addr, buildSpec, scen.Seed, o, ncells == 1 && len(scen.UEs) == 1)
		ue.Shard = s
		ue.HomeCell = home
		if scen.Mobility != nil {
			m := scen.Mobility
			ue.Roamer = radio.NewRoamer(ue.Net.Bearer, f.Topo, sh.Cells, mover, home, radio.RoamConfig{
				Interval:     m.Interval,
				Hysteresis:   m.Hysteresis,
				TTT:          m.TTT,
				Interruption: m.Interruption,
				DeviceGain:   deviceGain,
			})
			ue.Roamer.SetObs(ue.Trace, ue.Metrics)
			ue.Roamer.Start()
		}
		sh.UEs = append(sh.UEs, ue)
		f.UEs = append(f.UEs, ue)
		addr = addr.Next()
	}

	if o.profiler {
		// Shard kernels run concurrently, so each gets its own profiler;
		// RunTo merges them into f.Profiler.
		f.Profiler = obs.NewProfiler()
		for _, sh := range f.Shards {
			sh.prof = obs.NewProfiler()
			sh.K.SetProfiler(sh.prof)
			for _, ue := range sh.UEs {
				ue.Profiler = sh.prof
			}
		}
	}

	f.airUL = make([][]simtime.Time, ncells)
	f.airDL = make([][]simtime.Time, ncells)
	for c := range f.airUL {
		f.airUL[c] = make([]simtime.Time, ncells)
		f.airDL[c] = make([]simtime.Time, ncells)
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

// RunTo advances the simulation to the horizon in lockstep epochs across
// the shards, in parallel. Peer shards meet every X2 latency; a lone shard
// has no peers, so its whole run is one epoch. Results are byte-identical
// at any worker count.
func (f *Fleet) RunTo(horizon time.Duration) {
	f.installControl()
	window := horizon
	if len(f.Shards) > 1 {
		window = f.Topo.X2Latency
	}
	// A one-cell RunTo(0) has nothing to run, and Lockstep.Run rejects a
	// zero window.
	if window > 0 {
		kernels := make([]*simtime.Kernel, len(f.Shards))
		for i, sh := range f.Shards {
			kernels[i] = sh.K
		}
		ls := simtime.NewLockstep(kernels, f.opts.workers)
		ls.Run(horizon, window, func(end simtime.Time) {
			f.exchange(window)
			f.deliverCrossShard(end)
		})
		ls.Close()
	}
	if f.Profiler != nil {
		merged := obs.NewProfiler()
		for _, sh := range f.Shards {
			merged.Merge(sh.prof)
		}
		f.Profiler = merged
	}
}

// now returns the current virtual time (every shard sits at the same
// epoch boundary between RunTo calls).
func (f *Fleet) now() simtime.Time {
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

package fleet_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// Digests of TestSingleUEMatchesBed's QoE report Render() and Chrome trace
// export, recorded when a one-cell fleet still ran on its own single-kernel
// path instead of as a one-shard lockstep.
const (
	singleUEReportSHA = "dd14488b44a819e0fdf64ae133a57b316682e563827d2ea4bd72a9d0b6730daa"
	singleUETraceSHA  = "37c6e08ea619ba834dc8f8595984b7a632a44059b1008da4cd6c3b05940f7764"
)

// TestSingleUEMatchesBed: the Bed path (flat Options through testbed.New)
// and a 1-UE fleet build of the same scenario must produce byte-identical
// outputs — QoE report, Chrome trace export, behavior log, and collected
// radio/packet logs — and the report and trace must match the pinned
// digests.
func TestSingleUEMatchesBed(t *testing.T) {
	const seed = 7
	const horizon = 90 * time.Second
	wl := fleet.BrowseWorkload{Pages: 2, ThinkTime: 5 * time.Second}

	bed := testbed.MustNew(testbed.Options{Seed: seed, Trace: true, Metrics: true})
	wl.Start(bed.UE)
	bed.K.RunUntil(horizon)
	bed.CloseObs()

	f, err := fleet.Build(fleet.Scenario{Seed: seed, UEs: fleet.UniformUEs(1)},
		fleet.WithTrace(), fleet.WithMetrics(), fleet.WithHorizon(horizon))
	if err != nil {
		t.Fatal(err)
	}
	wl.Start(f.UEs[0])
	f.K.RunUntil(horizon)
	f.CloseObs()
	ue := f.UEs[0]

	report := f.Report().Render()
	if want := bed.Fleet().Report().Render(); report != want {
		t.Errorf("QoE reports diverge:\n--- bed ---\n%s\n--- fleet ---\n%s", want, report)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(report))); got != singleUEReportSHA {
		t.Errorf("report digest %s, want %s:\n%s", got, singleUEReportSHA, report)
	}
	var bedTrace, fleetTrace bytes.Buffer
	if err := obs.WriteChromeTrace(&bedTrace, bed.Trace.Events()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(&fleetTrace, ue.Trace.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bedTrace.Bytes(), fleetTrace.Bytes()) {
		t.Errorf("trace exports diverge: %d vs %d bytes", bedTrace.Len(), fleetTrace.Len())
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(fleetTrace.Bytes())); got != singleUETraceSHA {
		t.Errorf("trace digest %s, want %s", got, singleUETraceSHA)
	}
	if !reflect.DeepEqual(bed.Log.Entries, ue.Log.Entries) {
		t.Errorf("behavior logs diverge: %d vs %d entries", len(bed.Log.Entries), len(ue.Log.Entries))
	}
	if bed.Capture.Len() != ue.Capture.Len() {
		t.Errorf("capture lengths diverge: %d vs %d", bed.Capture.Len(), ue.Capture.Len())
	}
	if got, want := len(ue.QxDM.Log().PDUs), len(bed.QxDM.Log().PDUs); got != want {
		t.Errorf("radio logs diverge: %d vs %d PDUs", got, want)
	}
}

// TestFleet64Deterministic: a 64-UE contended run yields a byte-identical
// aggregate report across reruns.
func TestFleet64Deterministic(t *testing.T) {
	run := func() string {
		scen := fleet.Scenario{
			Seed:     42,
			Cell:     fleet.CellSpec{Policy: radio.SchedPropFair},
			UEs:      fleet.SpreadGains(fleet.UniformUEs(64), 0.5, 1.5),
			Workload: fleet.BrowseWorkload{Pages: 2, ThinkTime: 6 * time.Second},
		}
		rep, err := fleet.Run(scen, fleet.WithHorizon(3*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Render()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("64-UE fleet diverged across reruns:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty report")
	}
}

// TestSweepWorkerCountDeterminism: fleet cells as sweep points produce
// identical results regardless of the sweep's -parallel worker count.
func TestSweepWorkerCountDeterminism(t *testing.T) {
	exp, ok := experiments.Lookup("fleet")
	if !ok {
		t.Fatal("fleet experiment not registered")
	}
	cells := sweep.Grid([]experiments.Experiment{exp}, []int64{11, 12, 13})
	render := func(workers int) []string {
		results := sweep.Run(cells, sweep.Options{Workers: workers})
		out := make([]string, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("cell %d failed: %v", i, r.Err)
			}
			out[i] = r.Res.Render()
		}
		return out
	}
	serial := render(1)
	parallel := render(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("fleet sweep results depend on worker count")
	}
}

// TestScenarioValidation: malformed scenarios surface as errors, not
// panics — through both fleet.Build and testbed.New/NewScenario.
func TestScenarioValidation(t *testing.T) {
	if _, err := fleet.Build(fleet.Scenario{}); err == nil {
		t.Error("empty scenario accepted")
	}
	if _, err := fleet.Build(fleet.Scenario{UEs: []fleet.UESpec{{Gain: -1}}}); err == nil {
		t.Error("negative gain accepted")
	}
	if _, err := fleet.Build(fleet.Scenario{UEs: []fleet.UESpec{{ThrottleBps: -5}}}); err == nil {
		t.Error("negative throttle accepted")
	}
	if _, err := fleet.Build(fleet.Scenario{UEs: []fleet.UESpec{{StartAt: -time.Second}}}); err == nil {
		t.Error("negative start offset accepted")
	}
	if _, err := testbed.NewScenario(fleet.Scenario{UEs: fleet.UniformUEs(2)}); err == nil {
		t.Error("testbed accepted a 2-UE scenario")
	}
	if b, err := testbed.NewScenario(fleet.Scenario{UEs: fleet.UniformUEs(1)}); err != nil || b == nil {
		t.Errorf("valid 1-UE scenario rejected: %v", err)
	}
}

// TestCloseObsIdempotent: CloseObs is safe to call repeatedly, with and
// without configured obs sinks (the sweep teardown double-close).
func TestCloseObsIdempotent(t *testing.T) {
	plain := testbed.MustNew(testbed.Options{Seed: 1})
	plain.CloseObs()
	plain.CloseObs()

	traced := testbed.MustNew(testbed.Options{Seed: 1, Trace: true, Metrics: true})
	traced.K.RunUntil(2 * time.Second)
	traced.CloseObs()
	n := traced.Trace.Len()
	traced.CloseObs()
	if traced.Trace.Len() != n {
		t.Fatal("second CloseObs emitted more trace events")
	}
}

// TestStaggeredStarts: UESpec.StartAt delays a UE's workload, so its first
// measurement begins after the offset.
func TestStaggeredStarts(t *testing.T) {
	scen := fleet.Scenario{
		Seed:     5,
		UEs:      []fleet.UESpec{{}, {StartAt: 30 * time.Second}},
		Workload: fleet.BrowseWorkload{Pages: 1},
	}
	f, err := fleet.Build(scen, fleet.WithHorizon(2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	f.Drive()
	f.K.RunUntil(2 * time.Minute)
	for i, ue := range f.UEs {
		if len(ue.Log.Entries) == 0 {
			t.Fatalf("UE %d logged nothing", i)
		}
	}
	if first := f.UEs[1].Log.Entries[0].Start; first < 30*time.Second {
		t.Fatalf("staggered UE started at %v, before its 30s offset", first)
	}
	if first := f.UEs[0].Log.Entries[0].Start; first >= 30*time.Second {
		t.Fatalf("unstaggered UE started late at %v", first)
	}
}

// TestChromeTraceMulti: the merged export carries one process per UE with
// its own metadata, and stays parseable as one JSON document.
func TestChromeTraceMulti(t *testing.T) {
	scen := fleet.Scenario{
		Seed:     3,
		UEs:      fleet.UniformUEs(2),
		Workload: fleet.BrowseWorkload{Pages: 1},
	}
	f, err := fleet.Build(scen, fleet.WithTrace(), fleet.WithHorizon(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	f.Drive()
	f.K.RunUntil(time.Minute)
	f.CloseObs()
	procs := make([]obs.Process, len(f.UEs))
	for i, ue := range f.UEs {
		procs[i] = obs.Process{Pid: i + 1, Name: ue.Name, Events: ue.Trace.Events()}
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTraceMulti(&buf, procs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"process_name"`, `"ue0"`, `"ue1"`, `"pid":2`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("multi-process export missing %s", want)
		}
	}
	if out[len(out)-2:] != "}\n" {
		t.Error("export not terminated")
	}
}

package fleet

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/radio"
	"repro/internal/simtime"
)

// UEReport is one device's QoE summary.
type UEReport struct {
	Index int
	Name  string

	// Cell is the serving cell at the end of the run; Handovers and
	// Reselections count serving-cell changes (all zero outside multi-cell
	// scenarios).
	Cell         int
	Handovers    int
	Reselections int

	// Actions and Observed count the behavior-log measurements (rebuffer
	// cycles excluded from Actions — they are app-triggered sub-events).
	Actions  int
	Observed int
	// MeanLatency is the mean calibrated user-perceived latency across
	// observed user-triggered actions.
	MeanLatency time.Duration
	// PageLoad is the mean calibrated page-load latency (browse workloads).
	PageLoad time.Duration
	// RebufferRatio is stall/(play+stall) after initial loading, summed
	// over every watch (YouTube workloads).
	RebufferRatio float64
	Rebuffers     int
	// EnergyJ is the radio interface's active energy (tail + transfer) over
	// the run; zero when QxDM was disabled.
	EnergyJ float64
	// RRCTransitions counts radio state changes — the promotion-storm
	// signal under contention.
	RRCTransitions int
	Warnings       int

	// Attributions carries the per-incident layer diagnosis (app/radio/
	// transport/server split of each observed action's latency), in
	// behavior-log order. EmitReport streams these as attrib_* share events.
	Attributions []analyzer.Attribution

	// Interventions lists the remediations the control plane applied to
	// this UE (nil without a controller); RemedyEnergyJ is their total
	// energy charge, already included in EnergyJ.
	Interventions []Intervention
	RemedyEnergyJ float64
}

// Aggregate is one fleet-level KPI distribution over UEs.
type Aggregate struct {
	Name                string
	Mean, P50, P95, P99 float64
}

// Report is the fleet run's output: per-UE rows plus fleet-level KPI
// percentiles. Rendering is deterministic: UEs in index order, aggregates
// in fixed order, no map iteration.
type Report struct {
	Seed     int64
	Policy   radio.SchedPolicy
	Workload string
	// Cells is the number of cells simulated (1 = the single-cell layout).
	Cells int
	// Horizon is the virtual time the simulation had reached when the
	// report was taken (the last processed event's time).
	Horizon time.Duration

	UEs        []UEReport
	Aggregates []Aggregate
}

// ueReport condenses one UE's logs and analysis into its report row.
func ueReport(ue *UE, cl *analyzer.CrossLayer, end simtime.Time) UEReport {
	r := UEReport{Index: ue.Index, Name: ue.Name, Warnings: len(cl.Warnings)}
	r.Attributions = cl.Attributions()
	r.Cell = ue.ServingCellAt(end)
	if ue.Roamer != nil {
		r.Handovers = ue.Roamer.Handovers()
		r.Reselections = ue.Roamer.Reselections()
	}

	app := analyzer.AnalyzeApp(ue.Log)
	var latSum, loadSum time.Duration
	loads := 0
	for _, l := range app.Latencies {
		if l.Entry.Action == "rebuffer" {
			continue
		}
		r.Actions++
		if !l.Entry.Observed {
			continue
		}
		r.Observed++
		latSum += l.Calibrated
		if l.Entry.Action == "load_page" {
			loadSum += l.Calibrated
			loads++
		}
	}
	if r.Observed > 0 {
		r.MeanLatency = latSum / time.Duration(r.Observed)
	}
	if loads > 0 {
		r.PageLoad = loadSum / time.Duration(loads)
	}

	var stall, total time.Duration
	for _, w := range ue.Watch {
		r.Rebuffers += len(w.Rebuffers)
		if !w.InitialLoading.Observed || w.PlaybackEnd <= w.InitialLoading.End {
			continue
		}
		total += w.PlaybackEnd - w.InitialLoading.End
		for _, reb := range w.Rebuffers {
			stall += reb.RawLatency()
		}
	}
	if total > 0 {
		ratio := stall.Seconds() / total.Seconds()
		if ratio < 0 {
			ratio = 0
		}
		if ratio > 1 {
			ratio = 1
		}
		r.RebufferRatio = ratio
	}

	if ue.QxDM != nil {
		log := ue.QxDM.Log()
		r.RRCTransitions = len(log.Transitions)
		r.EnergyJ = power.Analyze(ue.Net.Bearer.Profile(), log, 0, end).ActiveJ()
	}
	if len(ue.Interventions) > 0 {
		r.Interventions = ue.Interventions
		r.RemedyEnergyJ = ue.RemedyEnergyJ
		r.EnergyJ += ue.RemedyEnergyJ
	}
	return r
}

// aggregate computes the fleet KPI percentiles from the per-UE rows.
func (r *Report) aggregate() {
	over := func(name string, get func(UEReport) float64) {
		xs := make([]float64, len(r.UEs))
		for i, ue := range r.UEs {
			xs[i] = get(ue)
		}
		c := metrics.NewCDF(xs)
		s := metrics.Summarize(xs)
		r.Aggregates = append(r.Aggregates, Aggregate{
			Name: name, Mean: s.Mean,
			P50: c.Quantile(0.50), P95: c.Quantile(0.95), P99: c.Quantile(0.99),
		})
	}
	over("user_latency_s", func(u UEReport) float64 { return u.MeanLatency.Seconds() })
	over("pageload_s", func(u UEReport) float64 { return u.PageLoad.Seconds() })
	over("rebuffer_ratio", func(u UEReport) float64 { return u.RebufferRatio })
	over("rrc_energy_j", func(u UEReport) float64 { return u.EnergyJ })
	over("rrc_transitions", func(u UEReport) float64 { return float64(u.RRCTransitions) })
	if r.Cells > 1 {
		over("handovers", func(u UEReport) float64 { return float64(u.Handovers + u.Reselections) })
	}
}

// Value returns a named aggregate's percentile column ("mean" | "p50" |
// "p95" | "p99"); ok is false for unknown names.
func (r *Report) Value(name, col string) (v float64, ok bool) {
	for _, a := range r.Aggregates {
		if a.Name != name {
			continue
		}
		switch col {
		case "mean":
			return a.Mean, true
		case "p50":
			return a.P50, true
		case "p95":
			return a.P95, true
		case "p99":
			return a.P99, true
		}
		return 0, false
	}
	return 0, false
}

// Render formats the full fleet report deterministically. Single-cell
// reports keep the legacy layout byte-for-byte; multi-cell reports add the
// cell count to the header and per-UE serving-cell/handover columns.
func (r *Report) Render() string {
	multi := r.Cells > 1
	var b strings.Builder
	if multi {
		fmt.Fprintf(&b, "== Fleet: %d UE(s) across %d cells, %s scheduler, workload %s, seed %d, horizon %s ==\n",
			len(r.UEs), r.Cells, r.Policy, r.Workload, r.Seed, r.Horizon)
	} else {
		fmt.Fprintf(&b, "== Fleet: %d UE(s), %s scheduler, workload %s, seed %d, horizon %s ==\n",
			len(r.UEs), r.Policy, r.Workload, r.Seed, r.Horizon)
	}

	headers := []string{"UE"}
	if multi {
		headers = append(headers, "Cell", "HO")
	}
	headers = append(headers, "Actions", "Observed", "Mean latency", "Pageload", "Rebuf ratio", "Rebufs", "RRC trans", "Energy")
	tbl := &metrics.Table{Headers: headers}
	for _, u := range r.UEs {
		row := []string{u.Name}
		if multi {
			row = append(row, fmt.Sprintf("cell%d", u.Cell), fmt.Sprintf("%d", u.Handovers+u.Reselections))
		}
		row = append(row,
			fmt.Sprintf("%d", u.Actions), fmt.Sprintf("%d", u.Observed),
			fmt.Sprintf("%.3fs", u.MeanLatency.Seconds()), fmt.Sprintf("%.3fs", u.PageLoad.Seconds()),
			fmt.Sprintf("%.4f", u.RebufferRatio), fmt.Sprintf("%d", u.Rebuffers),
			fmt.Sprintf("%d", u.RRCTransitions), fmt.Sprintf("%.1fJ", u.EnergyJ))
		tbl.AddRow(row...)
	}
	b.WriteString(tbl.String())

	b.WriteString("\n== Fleet aggregates ==\n")
	atbl := &metrics.Table{Headers: []string{"KPI", "Mean", "p50", "p95", "p99"}}
	for _, a := range r.Aggregates {
		atbl.AddRow(a.Name,
			fmt.Sprintf("%.4f", a.Mean), fmt.Sprintf("%.4f", a.P50),
			fmt.Sprintf("%.4f", a.P95), fmt.Sprintf("%.4f", a.P99))
	}
	b.WriteString(atbl.String())

	// The remediation section appears only when the control plane acted, so
	// controller-free reports stay byte-identical to the legacy layout.
	if n := r.totalInterventions(); n > 0 {
		fmt.Fprintf(&b, "\n== Remediation: %d intervention(s) ==\n", n)
		itbl := &metrics.Table{Headers: []string{"UE", "At", "Action", "Diagnosis", "Applied", "Energy", "Evidence"}}
		for _, u := range r.UEs {
			for _, iv := range u.Interventions {
				itbl.AddRow(u.Name,
					fmt.Sprintf("%.1fs", time.Duration(iv.AppliedAt).Seconds()),
					iv.Kind.String(), iv.Layer.String(),
					fmt.Sprintf("%v", iv.Applied),
					fmt.Sprintf("%.2fJ", iv.EnergyJ), iv.Note)
			}
		}
		b.WriteString(itbl.String())
	}
	return b.String()
}

// totalInterventions counts control-plane actions across the fleet.
func (r *Report) totalInterventions() int {
	n := 0
	for _, u := range r.UEs {
		n += len(u.Interventions)
	}
	return n
}

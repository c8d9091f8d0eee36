package main

// metricDef names one reported metric. The tables below are the
// benchmark's contract and must match BENCHMARK.json (checked by
// TestMetricTablesMatchBenchmarkJSON).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd metrics come from untraced reps. A "unit" of work is one
// UE-virtual-second on the fleet workloads and one fsync-acked event on
// ingest-query. Costs are process CPU time: on a shared virtual machine,
// time stolen by other tenants moves wall time between runs by more than
// any bound allows, so wall-clock figures are reported beside them
// (ns_per_ue_vsec, ingest_events_per_s, query latency) but not gated.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_ns_per_unit", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_unit", Unit: "count", Better: "lower", Bound: 0.1},
	{Name: "peak_heap_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer metrics come from traced reps.
var perLayer = []metricDef{
	{Name: "fleet.build_s", Unit: "s", Better: "lower"},
	{Name: "fleet.run_s", Unit: "s", Better: "lower"},
	{Name: "fleet.report_s", Unit: "s", Better: "lower"},
	{Name: "fleet.emit_s", Unit: "s", Better: "lower"},
	{Name: "fleet.unprofiled_share", Unit: "ratio", Better: "lower"},
	{Name: "simtime.events", Unit: "count", Better: "lower"},
	{Name: "simtime.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "radio.share", Unit: "ratio", Better: "lower"},
	{Name: "netsim.share", Unit: "ratio", Better: "lower"},
	{Name: "uisim.share", Unit: "ratio", Better: "lower"},
	{Name: "apps.share", Unit: "ratio", Better: "lower"},
	{Name: "controller.share", Unit: "ratio", Better: "lower"},
	{Name: "other.share", Unit: "ratio", Better: "lower"},
	{Name: "radio.handovers", Unit: "count", Better: "lower"},
	{Name: "radio.rrc_transitions", Unit: "count", Better: "lower"},
	{Name: "remedy.interventions", Unit: "count", Better: "lower"},
	{Name: "analyzer.cross_layer_s", Unit: "s", Better: "lower"},
	{Name: "analyzer.flows_s", Unit: "s", Better: "lower"},
	{Name: "analyzer.attributions_s", Unit: "s", Better: "lower"},
	{Name: "analyzer.ul_mapped_ratio", Unit: "ratio", Better: "higher"},
	{Name: "analyzer.dl_mapped_ratio", Unit: "ratio", Better: "higher"},
	{Name: "analyzer.packets", Unit: "count", Better: "lower"},
	{Name: "analyzer.pdus", Unit: "count", Better: "lower"},
	{Name: "qoestore.ingest_batch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "qoestore.ingest_batch_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "qoestore.query_service_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "qoestore.series", Unit: "count", Better: "lower"},
	{Name: "qoestore.evicted", Unit: "count", Better: "lower"},
	{Name: "qoestore.acked", Unit: "count", Better: "higher"},
	{Name: "qoestore.rejected", Unit: "count", Better: "lower"},
	{Name: "qoestore.shed", Unit: "count", Better: "lower"},
	{Name: "qoemon.evaluate_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "qoemon.series_per_s", Unit: "1/s", Better: "higher"},
	{Name: "qoemon.alerts", Unit: "count", Better: "lower"},
	{Name: "bench.generator_late_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// layerValues turns one traced rep's figures into per-layer metrics.
// fl is the fleet side (the rep's own fleet, or ingest-query's template
// fleets); st is the analytics side.
func layerValues(fl *fleetLayers, st *storeLayers) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	v["fleet.build_s"] = fl.Build.Seconds()
	v["fleet.run_s"] = fl.Run.Seconds()
	v["fleet.report_s"] = fl.Report.Seconds()
	v["fleet.emit_s"] = fl.Emit.Seconds()
	// Worker-time capacity during RunTo not spent inside any kernel
	// callback: dispatch, lockstep barriers and exchange, control hooks.
	if capacity := fl.Run.Seconds() * float64(min(fl.Workers, fl.Kernels)); capacity > 0 {
		v["fleet.unprofiled_share"] = max(0, 1-fl.Profile.Total.Seconds()/capacity)
	}
	v["simtime.events"] = float64(fl.Events)
	if fl.Events > 0 {
		v["simtime.ns_per_event"] = float64(fl.Run.Nanoseconds()) / float64(fl.Events)
	}
	for _, l := range profileLayers {
		v[l+".share"] = fl.Profile.Share(l)
	}
	v["radio.handovers"] = float64(fl.Handovers)
	v["radio.rrc_transitions"] = float64(fl.RRC)
	v["remedy.interventions"] = float64(fl.Interventions)
	v["analyzer.cross_layer_s"] = fl.CrossLayer.Seconds()
	v["analyzer.flows_s"] = fl.Flows.Seconds()
	v["analyzer.attributions_s"] = fl.Attributions.Seconds()
	v["analyzer.ul_mapped_ratio"] = ratio(fl.ULMapped, fl.ULTotal)
	v["analyzer.dl_mapped_ratio"] = ratio(fl.DLMapped, fl.DLTotal)
	v["analyzer.packets"] = float64(fl.Packets)
	v["analyzer.pdus"] = float64(fl.PDUs)

	v["qoestore.ingest_batch_p50_ms"] = quantile(st.IngestMs, 0.5)
	v["qoestore.ingest_batch_p99_ms"] = quantile(st.IngestMs, 0.99)
	v["qoestore.query_service_p50_ms"] = quantile(st.QueryMs, 0.5)
	v["qoestore.series"] = float64(st.Series)
	v["qoestore.evicted"] = float64(st.Stats.Evicted)
	v["qoestore.acked"] = float64(st.Stats.Acked)
	v["qoestore.rejected"] = float64(st.Stats.Rejected)
	v["qoestore.shed"] = float64(st.Stats.Shed)
	evalMs := quantile(st.EvalMs, 0.5)
	v["qoemon.evaluate_p50_ms"] = evalMs
	if evalMs > 0 {
		v["qoemon.series_per_s"] = float64(st.EvalSeries) / (evalMs / 1e3)
	}
	v["qoemon.alerts"] = float64(st.Alerts)
	v["bench.generator_late_ms"] = quantile(st.LateMs, 0.99)
	return v
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

package analyzer

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/core/qoe"
	"repro/internal/qxdm"
	"repro/internal/radio"
	"repro/internal/simtime"
)

// qxdmTruncationSlack is how far the packet capture must outlive the last
// radio record before the QxDM log is flagged as truncated. It absorbs the
// normal tail (a final burst's PDUs precede the last ACKs) without hiding a
// real mid-run logging gap.
const qxdmTruncationSlack = 2 * time.Second

// CrossLayer binds one session's layers together: flows from the capture,
// PDU streams from the QxDM log, and the IP-to-RLC mappings.
type CrossLayer struct {
	Session *qoe.Session
	Flows   *FlowReport

	ULPDUs []qxdm.PDURecord // deduplicated, first transmissions only
	DLPDUs []qxdm.PDURecord
	ULMap  MappingResult
	DLMap  MappingResult

	// Warnings lists non-fatal data-quality problems found while binding
	// the layers — absent or truncated logs, capture loss. A warning means
	// the analysis is partial, not wrong: affected breakdown components
	// degrade to coarser buckets instead of failing.
	Warnings []string

	ulPackets []MappedPacket
	dlPackets []MappedPacket

	timeline *pduTimeline // nil when the session has no radio log
}

func (c *CrossLayer) warn(format string, args ...any) {
	c.Warnings = append(c.Warnings, fmt.Sprintf(format, args...))
}

// radioCoverageWarnings flags a QxDM log that is empty, lossy, or ends well
// before the packet capture does (QxDM killed or disabled mid-run). It is a
// pure function of the session so the parallel engine can run it as an
// independent stage.
func radioCoverageWarnings(sess *qoe.Session) []string {
	log := sess.Radio
	var warns []string
	warn := func(format string, args ...any) {
		warns = append(warns, fmt.Sprintf(format, args...))
	}
	if miss := log.Missed[0] + log.Missed[1]; miss > 0 {
		warn("QxDM capture loss: %d PDUs missing from the radio log; RLC-layer components are underestimates", miss)
	}
	var lastRadio simtime.Time = -1
	for _, tr := range log.Transitions {
		if tr.At > lastRadio {
			lastRadio = tr.At
		}
	}
	for _, p := range log.PDUs {
		if p.At > lastRadio {
			lastRadio = p.At
		}
	}
	for _, st := range log.Statuses {
		if st.At > lastRadio {
			lastRadio = st.At
		}
	}
	if len(sess.Packets) == 0 {
		return warns
	}
	if lastRadio < 0 {
		warn("QxDM log contains no radio records; radio-layer breakdowns unavailable")
		return warns
	}
	cutoff := lastRadio + simtime.Time(qxdmTruncationSlack)
	after := 0
	for i := range sess.Packets {
		if sess.Packets[i].At > cutoff {
			after++
		}
	}
	if after > 0 {
		warn("QxDM log appears truncated: last radio record at %v but %d captured packets follow (logging stopped mid-run?); later radio breakdowns fall back to \"other\"",
			time.Duration(lastRadio), after)
	}
	return warns
}

// QoEWindow is the interval of a user-perceived latency problem (§5.4.1).
type QoEWindow struct {
	From, To simtime.Time
}

// WindowOf derives the QoE window from a behavior entry.
func WindowOf(e qoe.BehaviorEntry) QoEWindow { return QoEWindow{From: e.Start, To: e.End} }

// ResponsibleFlow finds the TCP flow carrying the most traffic inside the
// window — the paper's flow-identification heuristic ("in most cases only
// one flow has traffic during the QoE window").
func (c *CrossLayer) ResponsibleFlow(w QoEWindow) *Flow {
	var best *Flow
	bestBytes := -1
	for _, f := range c.Flows.Flows {
		bytes := f.WindowBytes(w.From, w.To)
		if bytes > bestBytes && bytes > 0 {
			best, bestBytes = f, bytes
		}
	}
	return best
}

// DeviceNetworkSplit implements the §7.2 breakdown: network latency is the
// span between the responsible flow's first and last packet inside the QoE
// window; device latency is the remainder of the user-perceived latency.
// When no flow has traffic in the window, the whole latency is device time
// (the Finding-1 signature: the network is off the critical path).
type DeviceNetworkSplit struct {
	UserPerceived time.Duration
	Network       time.Duration
	Device        time.Duration
	Flow          *Flow // nil when no flow had traffic in the window
}

// SplitDeviceNetwork computes the split for one calibrated measurement.
func (c *CrossLayer) SplitDeviceNetwork(l Latency) DeviceNetworkSplit {
	w := WindowOf(l.Entry)
	s := DeviceNetworkSplit{UserPerceived: l.Calibrated}
	f := c.ResponsibleFlow(w)
	if f == nil {
		s.Device = l.Calibrated
		return s
	}
	first, last, n := f.WindowSpan(w.From, w.To)
	if n < 2 {
		s.Device = l.Calibrated
		return s
	}
	s.Flow = f
	s.Network = time.Duration(last - first)
	if s.Network > s.UserPerceived {
		s.Network = s.UserPerceived
	}
	s.Device = s.UserPerceived - s.Network
	return s
}

// NetworkBreakdown is the Fig. 8/9 fine-grained decomposition of network
// latency inside a QoE window.
type NetworkBreakdown struct {
	Total           time.Duration
	IPToRLC         time.Duration
	RLCTransmission time.Duration
	FirstHopOTA     time.Duration
	Other           time.Duration
	PDUCount        int // data PDUs (incl. retransmissions) in the window
	Bursts          int
}

// BreakdownWindow decomposes the interval [from, to]:
//
//   - RLC transmission delay: the sum of inter-PDU gaps within each RLC
//     burst, where a burst groups PDUs whose spacing is below the estimated
//     first-hop OTA RTT (§7.2's burst analysis).
//   - First-hop OTA delay: STATUS waits the device explicitly blocks on
//     (no data PDU between the polling PDU and its STATUS).
//   - IP-to-RLC delay: for mapped packets whose first PDU starts a burst,
//     the gap between the IP timestamp and that first PDU.
//   - Other: the remainder (core network, server processing, TCP dynamics).
//
// Every radio lookup is a binary search on the CrossLayer's time-ordered
// PDU view, so a call costs O(log P) plus the records inside the window.
func (c *CrossLayer) BreakdownWindow(from, to simtime.Time) NetworkBreakdown {
	bd := NetworkBreakdown{Total: time.Duration(to - from)}
	tl := c.timeline
	if tl == nil || bd.Total <= 0 {
		bd.Other = bd.Total
		return bd
	}
	rtt := tl.rtt
	if rtt <= 0 {
		rtt = c.Session.Profile.OTARTT
	}

	// All data PDU transmissions in the window (retransmissions included:
	// they occupy the channel too).
	lo, hi := tl.pduRange(from, to)
	bd.PDUCount = hi - lo

	// Burst analysis.
	for i := lo; i < hi; i++ {
		if i == lo {
			bd.Bursts++
		} else if gap := time.Duration(tl.pdus[i].At - tl.pdus[i-1].At); gap >= rtt {
			bd.Bursts++
		} else {
			bd.RLCTransmission += gap
		}
	}

	// Explicit STATUS waits.
	slo, shi := tl.statusRange(from, to)
	for _, st := range tl.statuses[slo:shi] {
		bd.FirstHopOTA += tl.statusWait(st, lo)
	}

	// IP-to-RLC: burst-starting mapped packets.
	head := func(t simtime.Time) bool { return tl.burstHead(t, lo, hi, rtt) }
	bd.IPToRLC += ipToRLC(c.ulPackets, c.ULMap, c.ULPDUs, head, from, to)
	bd.IPToRLC += ipToRLC(c.dlPackets, c.DLMap, c.DLPDUs, head, from, to)

	used := bd.IPToRLC + bd.RLCTransmission + bd.FirstHopOTA
	if used < bd.Total {
		bd.Other = bd.Total - used
	}
	return bd
}

func ipToRLC(packets []MappedPacket, m MappingResult, pdus []qxdm.PDURecord, burstHead func(simtime.Time) bool, from, to simtime.Time) time.Duration {
	var sum time.Duration
	for i, pkt := range packets {
		if pkt.At < from || pkt.At > to || i >= len(m.Packets) || !m.Packets[i].Mapped {
			continue
		}
		first := pdus[m.Packets[i].FirstPDU]
		if !burstHead(first.At) {
			continue
		}
		if d := time.Duration(first.At - pkt.At); d > 0 {
			sum += d
		}
	}
	return sum
}

// pduTimeline is a time-ordered view of a radio log, built once per
// CrossLayer so BreakdownWindow never rescans the log.
type pduTimeline struct {
	// pdus and statuses are the log's own slices when already in At order
	// (always true for qxdm.Monitor output), else stable-sorted copies.
	pdus     []qxdm.PDURecord
	statuses []qxdm.StatusRecord
	// polls holds, per direction with polling PDUs, the index of the last
	// polling PDU at or before each index of pdus.
	polls []dirPolls
	// rtt is the log's MedianOTARTT (0 when it has no samples).
	rtt time.Duration
}

type dirPolls struct {
	dir  radio.Direction
	last []int32 // -1 before the direction's first poll
}

func newPDUTimeline(log *qxdm.Log) *pduTimeline {
	tl := &pduTimeline{
		pdus:     sortedByAt(log.PDUs, func(p qxdm.PDURecord) simtime.Time { return p.At }),
		statuses: sortedByAt(log.Statuses, func(s qxdm.StatusRecord) simtime.Time { return s.At }),
		rtt:      MedianOTARTT(log),
	}
	for _, p := range tl.pdus {
		if p.Poll && tl.pollsOf(p.Dir) == nil {
			tl.polls = append(tl.polls, dirPolls{dir: p.Dir})
		}
	}
	for d := range tl.polls {
		dp := &tl.polls[d]
		dp.last = make([]int32, len(tl.pdus))
		cur := int32(-1)
		for i, p := range tl.pdus {
			if p.Poll && p.Dir == dp.dir {
				cur = int32(i)
			}
			dp.last[i] = cur
		}
	}
	return tl
}

// sortedByAt returns recs itself when it is already in At order, else a
// stable-sorted copy (records at equal times keep their log order).
func sortedByAt[T any](recs []T, at func(T) simtime.Time) []T {
	byAt := func(a, b T) int { return cmp.Compare(at(a), at(b)) }
	if slices.IsSortedFunc(recs, byAt) {
		return recs
	}
	out := slices.Clone(recs)
	slices.SortStableFunc(out, byAt)
	return out
}

func (tl *pduTimeline) pollsOf(dir radio.Direction) *dirPolls {
	for i := range tl.polls {
		if tl.polls[i].dir == dir {
			return &tl.polls[i]
		}
	}
	return nil
}

// pduAfter returns the index of the first PDU later than t.
func (tl *pduTimeline) pduAfter(t simtime.Time) int {
	return sort.Search(len(tl.pdus), func(i int) bool { return tl.pdus[i].At > t })
}

// pduRange returns the index range of the PDUs inside [from, to].
func (tl *pduTimeline) pduRange(from, to simtime.Time) (lo, hi int) {
	lo = sort.Search(len(tl.pdus), func(i int) bool { return tl.pdus[i].At >= from })
	return lo, tl.pduAfter(to)
}

// statusRange returns the index range of the STATUS records inside [from, to].
func (tl *pduTimeline) statusRange(from, to simtime.Time) (lo, hi int) {
	lo = sort.Search(len(tl.statuses), func(i int) bool { return tl.statuses[i].At >= from })
	hi = sort.Search(len(tl.statuses), func(i int) bool { return tl.statuses[i].At > to })
	return lo, hi
}

// statusWait is st's explicit first-hop wait: the time from the last
// polling PDU of st's direction in [pdus[lo].At, st.At] to st, counted only
// when no later PDU of either direction went out in between.
func (tl *pduTimeline) statusWait(st qxdm.StatusRecord, lo int) time.Duration {
	hi := tl.pduAfter(st.At)
	dp := tl.pollsOf(st.Dir)
	if hi <= lo || dp == nil {
		return 0
	}
	j := dp.last[hi-1]
	if int(j) < lo {
		return 0
	}
	pollAt := tl.pdus[j].At
	if tl.pdus[hi-1].At > pollAt {
		return 0 // a data PDU followed the poll: the device did not block
	}
	return time.Duration(st.At - pollAt)
}

// burstHead reports whether a PDU at time t starts a burst of the window
// pdus[lo:hi] under burst threshold rtt.
func (tl *pduTimeline) burstHead(t simtime.Time, lo, hi int, rtt time.Duration) bool {
	i := lo + sort.Search(hi-lo, func(k int) bool { return tl.pdus[lo+k].At >= t })
	if i == hi || tl.pdus[i].At != t {
		return false
	}
	return i == lo || time.Duration(t-tl.pdus[i-1].At) >= rtt
}

// FlowToHostInWindow returns the hostname of the responsible flow, using
// the DNS association (§5.2); empty when unknown.
func (c *CrossLayer) FlowToHostInWindow(w QoEWindow) string {
	if f := c.ResponsibleFlow(w); f != nil {
		return f.Host
	}
	return ""
}

// DataConsumption sums device wire bytes over the capture, optionally
// restricted to flows resolved to host (empty host = everything).
func (c *CrossLayer) DataConsumption(host string) (ul, dl int) {
	if host == "" {
		return c.Flows.TotalUL, c.Flows.TotalDL
	}
	return c.Flows.HostBytes(host)
}

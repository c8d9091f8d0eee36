package analyzer

import (
	"repro/internal/core/qoe"
	"repro/internal/qxdm"
	"repro/internal/radio"
)

// The original serial analyzer: the equivalence reference for the indexed
// concurrent engine and mapper (engine_test.go, mapping_equiv_test.go,
// bench_pr4_test.go).

// newCrossLayerSerial is the original analyzer's single-goroutine dedup and
// linear-resync mapping, the reference NewCrossLayer must match. It shares
// the time-ordered PDU view with the parallel engine, so it is not a
// reference for BreakdownWindow; breakdownWindowRef is.
func newCrossLayerSerial(sess *qoe.Session) *CrossLayer {
	c := &CrossLayer{Session: sess}
	defer func() {
		if len(sess.Trace) > 0 {
			c.CrossCheckTrace(sess.Trace)
		}
	}()
	c.Flows = ExtractFlows(sess.Packets, sess.DeviceAddr)
	if len(sess.Packets) == 0 {
		c.warn("packet capture empty or absent; transport-layer analysis unavailable")
	}
	if sess.Radio == nil {
		if len(sess.Packets) > 0 {
			c.warn("QxDM log absent; radio-layer breakdowns unavailable")
		}
		return c
	}
	c.Warnings = append(c.Warnings, radioCoverageWarnings(sess)...)
	c.timeline = newPDUTimeline(sess.Radio)
	c.ULPDUs = dedupPDUs(directionPDUs(sess.Radio.PDUs, radio.Uplink))
	c.DLPDUs = dedupPDUs(directionPDUs(sess.Radio.PDUs, radio.Downlink))
	c.ulPackets, c.dlPackets = splitPackets(sess)
	c.ULMap = longJumpMapLinear(c.ulPackets, c.ULPDUs)
	c.DLMap = longJumpMapLinear(c.dlPackets, c.DLPDUs)
	return c
}

// longJumpMapLinear is the original implementation of LongJumpMap, with the
// O(resyncWindow) linear re-anchoring scan: the reference the indexed
// mapper must match bit-for-bit (property tests, the serial engine below,
// and the BENCH_PR4 A/B benchmarks).
func longJumpMapLinear(packets []MappedPacket, pdus []qxdm.PDURecord) MappingResult {
	dedup := dedupPDUs(pdus)
	res := MappingResult{Total: len(packets), Packets: make([]PacketMapping, len(packets))}

	cursorPDU, cursorOff := 0, 0
	for pi, pkt := range packets {
		if m, nextPDU, nextOff, ok := tryMap(pkt.Data, dedup, cursorPDU, cursorOff); ok {
			res.Packets[pi] = m
			res.Mapped++
			cursorPDU, cursorOff = nextPDU, nextOff
			continue
		}
		found := false
		start := anchorIndex(dedup, pkt.At-resyncLead)
		limit := start + resyncWindow
		if limit > len(dedup) {
			limit = len(dedup)
		}
	scan:
		for j := start; j < limit; j++ {
			if dedup[j].At > pkt.At+resyncLag {
				break
			}
			starts := []int{0}
			for _, li := range dedup[j].LI {
				if li < dedup[j].Size {
					starts = append(starts, li)
				}
			}
			for _, off := range starts {
				if m, nextPDU, nextOff, ok := tryMap(pkt.Data, dedup, j, off); ok {
					res.Packets[pi] = m
					res.Mapped++
					cursorPDU, cursorOff = nextPDU, nextOff
					found = true
					break scan
				}
			}
		}
		if !found {
			res.Packets[pi] = PacketMapping{Mapped: false}
		}
	}
	return res
}

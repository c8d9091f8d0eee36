package analyzer

import (
	"sort"

	"repro/internal/qxdm"
	"repro/internal/simtime"
)

// PacketMapping records where one IP packet landed in the RLC PDU stream.
type PacketMapping struct {
	Mapped   bool
	FirstPDU int // index into the deduplicated PDU slice
	LastPDU  int
	PDUs     int // number of PDUs carrying this packet's bytes
}

// MappingResult is the outcome of the long-jump mapping for one direction.
type MappingResult struct {
	Packets []PacketMapping
	Mapped  int
	Total   int
}

// Ratio is the fraction of packets successfully mapped (the Table 3
// metric: 99.52% uplink / 88.83% downlink in the paper).
func (m MappingResult) Ratio() float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Mapped) / float64(m.Total)
}

// resyncWindow is a hard cap on how many PDUs the mapper examines when
// re-anchoring after a failed mapping; the effective bound is the time
// window [pkt.At-resyncLead, pkt.At+resyncLag], which must cover multi-
// second RLC queue backlogs (a 3G uplink under load runs ~2500 PDU/s).
const resyncWindow = 100_000

// resyncLead is how far before the packet's capture timestamp the
// re-anchoring search starts. It must cover RLC reassembly and in-order
// head-of-line delays (downlink) and clock slop.
const resyncLead = 3 * simtime.Time(1e9) // 3 s

// resyncLag bounds how far after the capture timestamp a candidate first
// PDU may lie (uplink packets can queue behind a long RLC backlog).
const resyncLag = 20 * simtime.Time(1e9) // 20 s

// MappedPacket pairs an IP packet's wire bytes with its capture timestamp.
type MappedPacket struct {
	At   simtime.Time
	Data []byte
}

// LongJumpMap implements the §5.4.2 algorithm (Fig. 5): QxDM logs only the
// first 2 payload bytes of each PDU, so the mapper matches those 2 bytes at
// every PDU the packet spans, jumps over the rest of each PDU's payload
// ("long jump"), requires sequence-number continuity, and accepts a mapping
// only when a Length Indicator marks the packet's end at the exact
// cumulative offset. Capture-lost PDUs break continuity; the affected
// packets are reported unmapped, matching the paper's <100% mapping ratios.
//
// pdus must be a single direction's data PDUs. Retransmissions (duplicate
// sequence numbers) are ignored, keeping the first transmission of each SN.
//
// The resync path runs over a head-byte/LI candidate index (see pduIndex)
// instead of the original linear window walk; the result is bit-identical
// to that walk, which the tests keep as the equivalence reference.
func LongJumpMap(packets []MappedPacket, pdus []qxdm.PDURecord) MappingResult {
	return mapIndexed(packets, buildPDUIndex(dedupPDUs(pdus)), nil)
}

// mapIndexed is the shared mapping driver: natural-cursor continuation
// first, indexed timestamp-anchored resync on failure. When reasons is
// non-nil it additionally tallies the post-resync outcome per packet —
// "ok" (cursor continuation), "resync" (re-anchored), or the first failed
// check of the cursor attempt for packets that stay unmapped.
func mapIndexed(packets []MappedPacket, ix *pduIndex, reasons map[string]int) MappingResult {
	res := MappingResult{Total: len(packets), Packets: make([]PacketMapping, len(packets))}
	cursorPDU, cursorOff := 0, 0
	for pi, pkt := range packets {
		m, nextPDU, nextOff, ok, reason := tryMapReason(pkt.Data, ix.dedup, cursorPDU, cursorOff)
		if ok {
			res.Packets[pi] = m
			res.Mapped++
			cursorPDU, cursorOff = nextPDU, nextOff
			if reasons != nil {
				reasons["ok"]++
			}
			continue
		}
		// Resync: the packet may start at a later PDU (after capture-lost
		// PDUs) — either at a PDU's payload start, or right after a Length
		// Indicator inside one (the previous packet's tail shares the PDU).
		// The search is anchored to the packet's capture timestamp rather
		// than the cursor: generic packets (pure ACKs share identical head
		// bytes) would otherwise alias to arbitrarily distant slots and
		// poison every subsequent mapping.
		if m, nextPDU, nextOff, ok := ix.resync(pkt); ok {
			res.Packets[pi] = m
			res.Mapped++
			cursorPDU, cursorOff = nextPDU, nextOff
			if reasons != nil {
				reasons["resync"]++
			}
			continue
		}
		res.Packets[pi] = PacketMapping{Mapped: false}
		if reasons != nil {
			reasons[reason]++
		}
	}
	return res
}

// anchorIndex returns the index of the first deduplicated PDU transmitted
// at or after t. The seq-sorted slice is monotone in time except for
// capture-lost first transmissions replaced by later retransmissions, so
// the binary-search result is padded backwards past any local inversion.
func anchorIndex(dedup []qxdm.PDURecord, t simtime.Time) int {
	i := sort.Search(len(dedup), func(i int) bool { return dedup[i].At >= t })
	for i > 0 && dedup[i-1].At >= t {
		i--
	}
	// Conservative extra padding for inversions just before the anchor.
	const pad = 64
	if i > pad {
		return i - pad
	}
	return 0
}

// dedupPDUs drops ARQ retransmissions, keeping the first captured
// transmission of each sequence number, and returns the records in
// sequence order. (When QxDM misses a first transmission but catches its
// retransmission, the survivor appears late in the time-ordered log, so a
// sort by SN is required for the mapper's continuity walk.)
func dedupPDUs(pdus []qxdm.PDURecord) []qxdm.PDURecord {
	seen := make(map[uint32]bool, len(pdus))
	out := make([]qxdm.PDURecord, 0, len(pdus))
	for _, p := range pdus {
		if seen[p.Seq] {
			continue
		}
		seen[p.Seq] = true
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// tryMap attempts to lay packet data into the PDU stream starting at
// (startPDU, startOff). It returns the mapping and the cursor position for
// the next packet. reason (for diagnostics) names the first check that
// failed: "eof", "cursor", "head", "gap", or "li".
func tryMap(data []byte, pdus []qxdm.PDURecord, startPDU, startOff int) (m PacketMapping, nextPDU, nextOff int, ok bool) {
	m, nextPDU, nextOff, ok, _ = tryMapReason(data, pdus, startPDU, startOff)
	return
}

func tryMapReason(data []byte, pdus []qxdm.PDURecord, startPDU, startOff int) (m PacketMapping, nextPDU, nextOff int, ok bool, reason string) {
	L := len(data)
	if L == 0 || startPDU >= len(pdus) {
		return m, 0, 0, false, "eof"
	}
	idx, off := startPDU, startOff
	consumed := 0
	for {
		if idx >= len(pdus) {
			return m, 0, 0, false, "eof"
		}
		pdu := pdus[idx]
		if off >= pdu.Size {
			return m, 0, 0, false, "cursor"
		}
		// Head check: entering this PDU at its payload start, the logged 2
		// bytes must match the packet bytes at the current offset.
		if off == 0 {
			if pdu.Head[0] != data[consumed] {
				return m, 0, 0, false, "head"
			}
			// The second head byte belongs to this packet only when the
			// packet extends at least two bytes into this PDU.
			if pdu.Size >= 2 && consumed+1 < L && pdu.Head[1] != data[consumed+1] {
				return m, 0, 0, false, "head"
			}
		}
		take := pdu.Size - off
		if take > L-consumed {
			take = L - consumed
		}
		consumed += take
		off += take
		if consumed == L {
			// The packet must end exactly at a Length Indicator.
			if !liAt(pdu, off) {
				return m, 0, 0, false, "li"
			}
			m = PacketMapping{Mapped: true, FirstPDU: startPDU, LastPDU: idx, PDUs: idx - startPDU + 1}
			if off == pdu.Size {
				return m, idx + 1, 0, true, ""
			}
			return m, idx, off, true, ""
		}
		// Advance to the next PDU; require sequence continuity (a capture
		// gap means we cannot account for the missing bytes).
		if idx+1 < len(pdus) && pdus[idx+1].Seq != pdu.Seq+1 {
			return m, 0, 0, false, "gap"
		}
		idx++
		off = 0
	}
}

// DiagnoseMap runs the exact LongJumpMap algorithm — natural cursor plus
// timestamp-anchored resync — and records the post-resync outcome of every
// packet (used by traceview and debugging): "ok" for cursor continuations,
// "resync" for packets recovered by re-anchoring, and the cursor attempt's
// first-failure reason ("eof", "cursor", "head", "gap", "li") for packets
// that stay unmapped. ok + resync always equals LongJumpMap's Mapped count
// on the same inputs; the seed version skipped the resync path entirely,
// so its tallies described a stricter mapper than the one actually used.
func DiagnoseMap(packets []MappedPacket, pdus []qxdm.PDURecord) map[string]int {
	reasons := map[string]int{}
	mapIndexed(packets, buildPDUIndex(dedupPDUs(pdus)), reasons)
	return reasons
}

func liAt(p qxdm.PDURecord, off int) bool {
	for _, li := range p.LI {
		if li == off {
			return true
		}
	}
	return false
}

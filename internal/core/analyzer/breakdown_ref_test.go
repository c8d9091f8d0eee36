package analyzer

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core/qoe"
	"repro/internal/qxdm"
	"repro/internal/radio"
	"repro/internal/simtime"
)

// breakdownWindowRef is the original BreakdownWindow, kept verbatim as the
// equivalence reference: it rescans the whole PDU log once per window and
// once more per STATUS record, and recomputes MedianOTARTT on every call.
func breakdownWindowRef(c *CrossLayer, from, to simtime.Time) NetworkBreakdown {
	bd := NetworkBreakdown{Total: time.Duration(to - from)}
	if c.Session.Radio == nil || bd.Total <= 0 {
		bd.Other = bd.Total
		return bd
	}
	rtt := MedianOTARTT(c.Session.Radio)
	if rtt <= 0 {
		rtt = c.Session.Profile.OTARTT
	}

	var times []simtime.Time
	for _, p := range c.Session.Radio.PDUs {
		if p.At >= from && p.At <= to {
			times = append(times, p.At)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	bd.PDUCount = len(times)

	burstHeads := make(map[simtime.Time]bool)
	for i, t := range times {
		if i == 0 || time.Duration(t-times[i-1]) >= rtt {
			bd.Bursts++
			burstHeads[t] = true
		} else {
			bd.RLCTransmission += time.Duration(t - times[i-1])
		}
	}

	for _, st := range c.Session.Radio.Statuses {
		if st.At < from || st.At > to {
			continue
		}
		var pollAt simtime.Time = -1
		var anyAfterPoll bool
		for _, p := range c.Session.Radio.PDUs {
			if p.At > st.At || p.At < from {
				continue
			}
			if p.Dir == st.Dir && p.Poll {
				pollAt = p.At
				anyAfterPoll = false
			} else if pollAt >= 0 && p.At > pollAt {
				anyAfterPoll = true
			}
		}
		if pollAt >= 0 && !anyAfterPoll {
			bd.FirstHopOTA += time.Duration(st.At - pollAt)
		}
	}

	bd.IPToRLC += ipToRLCRef(c.ulPackets, c.ULMap, c.ULPDUs, burstHeads, from, to)
	bd.IPToRLC += ipToRLCRef(c.dlPackets, c.DLMap, c.DLPDUs, burstHeads, from, to)

	used := bd.IPToRLC + bd.RLCTransmission + bd.FirstHopOTA
	if used < bd.Total {
		bd.Other = bd.Total - used
	}
	return bd
}

func ipToRLCRef(packets []MappedPacket, m MappingResult, pdus []qxdm.PDURecord, burstHeads map[simtime.Time]bool, from, to simtime.Time) time.Duration {
	var sum time.Duration
	for i, pkt := range packets {
		if pkt.At < from || pkt.At > to || i >= len(m.Packets) || !m.Packets[i].Mapped {
			continue
		}
		first := pdus[m.Packets[i].FirstPDU]
		if !burstHeads[first.At] {
			continue
		}
		if d := time.Duration(first.At - pkt.At); d > 0 {
			sum += d
		}
	}
	return sum
}

// randomTimeline builds a CrossLayer over a random time-ordered radio log:
// both directions, polls, bursts with gaps around the OTA RTT, PDUs that
// share a timestamp, STATUS records of both directions (some before any
// poll), and mapped packets whose first PDU may or may not head a burst.
func randomTimeline(rng *rand.Rand) *CrossLayer {
	prof := radio.Profile3G()
	log := &qxdm.Log{}
	var t simtime.Time
	n := rng.Intn(300)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // same instant as the previous record
		case 1:
			t += simtime.Time(rng.Intn(int(3 * prof.OTARTT)))
		default:
			t += simtime.Time(rng.Intn(int(prof.OTARTT / 4)))
		}
		log.PDUs = append(log.PDUs, qxdm.PDURecord{
			At:   t,
			Dir:  radio.Direction(rng.Intn(2)),
			Seq:  uint32(i),
			Poll: rng.Intn(5) == 0,
		})
	}
	var st simtime.Time
	for i := rng.Intn(60); i > 0; i-- {
		st += simtime.Time(rng.Int63n(int64(t)/30 + 1))
		log.Statuses = append(log.Statuses, qxdm.StatusRecord{At: st, Dir: radio.Direction(rng.Intn(2))})
	}
	c := &CrossLayer{Session: &qoe.Session{Profile: prof, Radio: log}}
	for _, p := range log.PDUs {
		if p.Dir == radio.Uplink {
			c.ULPDUs = append(c.ULPDUs, p)
		} else {
			c.DLPDUs = append(c.DLPDUs, p)
		}
	}
	mkPackets := func(pdus []qxdm.PDURecord) ([]MappedPacket, MappingResult) {
		var pkts []MappedPacket
		var m MappingResult
		for i := rng.Intn(40); i > 0 && len(pdus) > 0; i-- {
			j := rng.Intn(len(pdus))
			at := pdus[j].At - simtime.Time(rng.Intn(int(prof.OTARTT)))
			pkts = append(pkts, MappedPacket{At: at})
			m.Packets = append(m.Packets, PacketMapping{Mapped: rng.Intn(4) != 0, FirstPDU: j})
		}
		return pkts, m
	}
	c.ulPackets, c.ULMap = mkPackets(c.ULPDUs)
	c.dlPackets, c.DLMap = mkPackets(c.DLPDUs)
	c.timeline = newPDUTimeline(log)
	return c
}

// Property: on any time-ordered log, the indexed BreakdownWindow equals
// the original full-scan loop for every window, including empty, degenerate
// and whole-log ones.
func TestBreakdownWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		c := randomTimeline(rng)
		pdus := c.Session.Radio.PDUs
		end := simtime.Time(time.Second)
		if len(pdus) > 0 {
			end = pdus[len(pdus)-1].At + 1
		}
		windows := [][2]simtime.Time{{0, end}, {end, 0}, {end / 2, end / 2}}
		for i := 0; i < 20; i++ {
			a, b := simtime.Time(rng.Int63n(int64(end)+1)), simtime.Time(rng.Int63n(int64(end)+1))
			windows = append(windows, [2]simtime.Time{min(a, b), max(a, b)})
		}
		if len(pdus) > 0 {
			// Windows whose edges sit exactly on PDU timestamps.
			a, b := pdus[rng.Intn(len(pdus))].At, pdus[rng.Intn(len(pdus))].At
			windows = append(windows, [2]simtime.Time{min(a, b), max(a, b)})
		}
		for _, w := range windows {
			got, want := c.BreakdownWindow(w[0], w[1]), breakdownWindowRef(c, w[0], w[1])
			if got != want {
				t.Fatalf("trial %d window %v: got %+v, want %+v", trial, w, got, want)
			}
		}
	}
}

// A hand-written log out of At order (qxdm.Read accepts any order) gets
// the breakdown of its time-sorted form: the view sorts a copy once, and
// the caller's log is left as it was.
func TestBreakdownWindowSortsUnorderedLog(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		c := randomTimeline(rng)
		log := c.Session.Radio
		for i := range log.PDUs {
			log.PDUs[i].At = simtime.Time(i) * simtime.Time(time.Millisecond) // a unique time order
		}
		c.timeline = newPDUTimeline(log)

		shuffled := &qxdm.Log{PDUs: slices.Clone(log.PDUs), Statuses: slices.Clone(log.Statuses)}
		rng.Shuffle(len(shuffled.PDUs), func(i, j int) {
			shuffled.PDUs[i], shuffled.PDUs[j] = shuffled.PDUs[j], shuffled.PDUs[i]
		})
		rng.Shuffle(len(shuffled.Statuses), func(i, j int) {
			shuffled.Statuses[i], shuffled.Statuses[j] = shuffled.Statuses[j], shuffled.Statuses[i]
		})
		before := slices.Clone(shuffled.PDUs)
		u := *c
		u.Session = &qoe.Session{Profile: c.Session.Profile, Radio: shuffled}
		u.timeline = newPDUTimeline(shuffled)
		if !reflect.DeepEqual(u.timeline.pdus, c.timeline.pdus) {
			t.Fatalf("trial %d: view of the shuffled log is not the sorted log", trial)
		}
		if !reflect.DeepEqual(shuffled.PDUs, before) {
			t.Fatalf("trial %d: building the view reordered the caller's log", trial)
		}
		end := simtime.Time(len(log.PDUs)) * simtime.Time(time.Millisecond)
		for i := 0; i < 10; i++ {
			a, b := simtime.Time(rng.Int63n(int64(end)+1)), simtime.Time(rng.Int63n(int64(end)+1))
			from, to := min(a, b), max(a, b)
			if got, want := u.BreakdownWindow(from, to), c.BreakdownWindow(from, to); got != want {
				t.Fatalf("trial %d [%v, %v]: shuffled log %+v, sorted log %+v", trial, from, to, got, want)
			}
		}
	}
}

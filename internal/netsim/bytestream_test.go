package netsim

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/simtime"
)

// refDeframer is the original copy-everything MsgConn.feed, kept as the
// reference for the in-place deframer: it appends every segment to one
// reassembly buffer and hands each payload over as a fresh copy.
type refDeframer struct {
	buf     []byte
	aborted bool
}

func (r *refDeframer) feed(data []byte, onMsg func(kind byte, payload []byte)) {
	r.buf = append(r.buf, data...)
	for len(r.buf) >= msgHeaderLen {
		kind := r.buf[0]
		n := int(binary.BigEndian.Uint32(r.buf[1:]))
		if n > maxMsgLen {
			r.buf = nil
			r.aborted = true
			return
		}
		if len(r.buf) < msgHeaderLen+n {
			return
		}
		payload := append([]byte(nil), r.buf[msgHeaderLen:msgHeaderLen+n]...)
		r.buf = r.buf[msgHeaderLen+n:]
		onMsg(kind, payload)
	}
}

// loneConn returns an established connection whose packets go nowhere:
// enough to drive the send buffer and the deframer without a peer.
func loneConn(k *simtime.Kernel) *Conn {
	s := NewStack(k, netip.MustParseAddr("10.0.0.1"))
	s.SetOutput(func(*Packet) {})
	c := newConn(s, Endpoint{s.Addr(), 40000}, Endpoint{netip.MustParseAddr("10.0.0.2"), 443})
	s.conns[c.key] = c
	c.state = stEstablished
	c.established = true
	return c
}

// encodeFrames builds the wire stream of msgs.
func encodeFrames(msgs []msg) []byte {
	var out []byte
	for _, m := range msgs {
		out = append(out, m.kind, 0, 0, 0, 0)
		binary.BigEndian.PutUint32(out[len(out)-4:], uint32(len(m.payload)))
		out = append(out, m.payload...)
	}
	return out
}

// randomCuts splits n bytes into segments: mostly MSS-sized, with short
// ones mixed in so headers and payloads straddle segment edges.
func randomCuts(rng *rand.Rand, n int) []int {
	var cuts []int
	for at := 0; at < n; {
		var k int
		switch rng.Intn(4) {
		case 0:
			k = 1 + rng.Intn(msgHeaderLen+1) // splits a header
		case 1:
			k = 1 + rng.Intn(3*MSS)
		default:
			k = MSS
		}
		k = min(k, n-at)
		cuts = append(cuts, k)
		at += k
	}
	return cuts
}

// Property: any message stream, cut into segments anywhere, is deframed
// into exactly its messages, and a payload kept from an earlier callback
// (an alias of a segment, or an assembled buffer) still reads correctly
// after every later feed.
func TestMsgConnFeedFramingProperty(t *testing.T) {
	sizes := []int{0, 1, 4, 5, MSS - 1, MSS, MSS + 1, 32 << 10}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		want := make([]msg, 1+rng.Intn(12))
		for i := range want {
			n := sizes[rng.Intn(len(sizes))]
			if rng.Intn(3) == 0 {
				n = rng.Intn(3 * MSS)
			}
			p := make([]byte, n)
			rng.Read(p)
			want[i] = msg{byte(rng.Intn(256)), p}
		}
		stream := encodeFrames(want)

		m := NewMsgConn(loneConn(simtime.NewKernel(1)))
		var got []msg
		m.OnMessage(func(kind byte, payload []byte) { got = append(got, msg{kind, payload}) })
		at := 0
		for _, k := range randomCuts(rng, len(stream)) {
			m.feed(stream[at : at+k : at+k])
			at += k
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d messages, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].kind != want[i].kind || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("trial %d: message %d (%d bytes) corrupted", trial, i, len(want[i].payload))
			}
		}
		if m.nhdr != 0 || m.part != nil {
			t.Fatalf("trial %d: deframer holds state after a whole stream", trial)
		}
	}
}

// The deframer agrees with the reference deframer on arbitrary bytes cut
// anywhere: the same messages and the same abort decision, no panic.
func FuzzMsgConnFeed(f *testing.F) {
	f.Add(encodeFrames([]msg{{7, []byte("hello")}, {8, nil}, {9, bytes.Repeat([]byte{0xEE}, 300)}}), []byte{2, 3, 200})
	f.Add(encodeFrames([]msg{{1, []byte("ab")}}), []byte{1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 9, 9}, []byte{3})                  // desync length
	f.Add(append(encodeFrames([]msg{{2, []byte("x")}}), 3, 0, 0, 0), []byte{}) // truncated header
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		m := NewMsgConn(loneConn(simtime.NewKernel(1)))
		aborted := false
		m.Conn.OnClose(func() { aborted = true })
		var got, want []msg
		m.OnMessage(func(kind byte, payload []byte) { got = append(got, msg{kind, payload}) })
		var ref refDeframer
		at := 0
		for i := 0; at < len(stream) && !aborted; i++ {
			k := len(stream) - at
			if i < len(cuts) {
				k = min(k, int(cuts[i]))
			}
			seg := stream[at : at+k : at+k]
			at += k
			m.feed(seg)
			ref.feed(seg, func(kind byte, payload []byte) { want = append(want, msg{kind, payload}) })
			if aborted != ref.aborted {
				t.Fatalf("abort after %d bytes: got %v, reference %v", at, aborted, ref.aborted)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("got %d messages, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i].kind != want[i].kind || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("message %d differs from the reference", i)
			}
		}
	})
}

// SendFiller draws exactly n filler bytes from the kernel RNG on every
// path — sent, queued before the handshake, refused after teardown or
// Close, and aborted on backlog overflow — so connection state never
// shifts the RNG stream. On overflow the draw precedes Abort: a redial
// from OnClose takes its ISS after the filler.
func TestSendFillerRNGStream(t *testing.T) {
	const seed, n = 99, 3000
	cases := []struct {
		name  string
		setup func(k *simtime.Kernel) *MsgConn
		sent  bool // the frame reaches the send buffer
	}{
		{"established", func(k *simtime.Kernel) *MsgConn { return NewMsgConn(loneConn(k)) }, true},
		{"pre-handshake", func(k *simtime.Kernel) *MsgConn {
			s := NewStack(k, netip.MustParseAddr("10.0.0.1"))
			s.SetOutput(func(*Packet) {})
			return NewMsgConn(s.Dial(Endpoint{netip.MustParseAddr("10.0.0.2"), 443}))
		}, true},
		{"done", func(k *simtime.Kernel) *MsgConn {
			c := loneConn(k)
			c.Abort()
			return NewMsgConn(c)
		}, false},
		{"closing", func(k *simtime.Kernel) *MsgConn {
			c := loneConn(k)
			c.Close()
			return NewMsgConn(c)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := simtime.NewKernel(seed)
			m := tc.setup(k)
			ref := rand.New(rand.NewSource(seed))
			ref.Int63() // the connection's ISS
			filler := make([]byte, n)
			ref.Read(filler)
			before := m.Conn.Buffered()
			m.SendFiller(3, n)
			if got, want := k.Rand().Int63(), ref.Int63(); got != want {
				t.Fatalf("next kernel draw %d, want %d (filler not drawn exactly once)", got, want)
			}
			if !tc.sent {
				if m.Conn.Buffered() != before {
					t.Fatal("refused filler reached the send buffer")
				}
				return
			}
			f := m.Conn.buf[before:]
			if len(f) != msgHeaderLen+n || f[0] != 3 || binary.BigEndian.Uint32(f[1:]) != n ||
				!bytes.Equal(f[msgHeaderLen:], filler) {
				t.Fatal("framed filler in the send buffer differs from the reference draw")
			}
		})
	}

	t.Run("overflow-redial", func(t *testing.T) {
		k := simtime.NewKernel(seed)
		c := loneConn(k)
		c.buf = make([]byte, maxSendBacklog-n) // a flow that never drained
		m := NewMsgConn(c)
		var redial *Conn
		c.OnClose(func() { redial = c.stack.Dial(Endpoint{netip.MustParseAddr("10.0.0.2"), 443}) })
		m.SendFiller(3, n)
		if redial == nil {
			t.Fatal("backlog overflow did not abort the connection")
		}
		ref := rand.New(rand.NewSource(seed))
		ref.Int63() // the first connection's ISS
		ref.Read(make([]byte, n))
		if want := uint32(ref.Int63()) | 1; redial.iss != want {
			t.Fatalf("redial ISS %d, want %d: Abort ran before the filler draw", redial.iss, want)
		}
		if got, want := k.Rand().Int63(), ref.Int63(); got != want {
			t.Fatalf("next kernel draw %d, want %d", got, want)
		}
	})
}

// A segment emitted before the send buffer moves to a larger array keeps
// its bytes: growth copies live bytes out, never compacting the old array
// in place, and ACKs only reslice forward. Once every byte is acknowledged
// the buffer lets go of its array.
func TestSendBufferSegmentsSurviveGrowth(t *testing.T) {
	k := simtime.NewKernel(3)
	p := newPipe(k, 5*time.Millisecond)
	type seg struct {
		seq     uint32
		payload []byte // aliases the sender's buffer
	}
	var segs []seg
	p.a.AttachCapture(func(_ simtime.Time, pkt *Packet, inbound bool) {
		if !inbound && len(pkt.Payload) > 0 {
			segs = append(segs, seg{pkt.Seq, pkt.Payload})
		}
	})
	var rcvd int
	p.b.Listen(80, func(c *Conn) { c.OnReceive(func(d []byte) { rcvd += len(d) }) })
	c := p.a.Dial(Endpoint{p.b.Addr(), 80})
	k.Run()

	rng := rand.New(rand.NewSource(4))
	var stream []byte
	send := func(n int) {
		d := make([]byte, n)
		rng.Read(d)
		stream = append(stream, d...)
		c.Send(d)
	}
	send(30_000) // the first array; its first window goes out at once
	// Let one round of ACKs consume the front of the array.
	k.RunUntil(k.Now() + simtime.Time(12*time.Millisecond))
	consumed := 30_000 - c.Buffered()
	// Small enough to fit in the consumed front, too big for the space
	// behind the live tail: the buffer must grow, and only a compacting
	// grow could reuse the old array.
	n := consumed / 2
	if consumed == 0 || cap(c.buf)-len(c.buf) >= n {
		t.Fatalf("setup: %d bytes consumed, %d free behind the tail", consumed, cap(c.buf)-len(c.buf))
	}
	send(n)
	k.Run()
	if rcvd != len(stream) {
		t.Fatalf("receiver got %d bytes, want %d", rcvd, len(stream))
	}
	if cap(c.buf) != 0 {
		t.Fatalf("the drained send buffer still pins a %d-byte array", cap(c.buf))
	}
	base := c.iss + 1
	for _, s := range segs {
		off := int(s.seq - base)
		if !bytes.Equal(s.payload, stream[off:off+len(s.payload)]) {
			t.Fatalf("segment at offset %d was overwritten after it was emitted", off)
		}
	}
}

// Re-arming the retransmission timer allocates nothing: the callback is
// bound once per connection.
func TestRTOReArmAllocatesNothing(t *testing.T) {
	c := loneConn(simtime.NewKernel(1))
	for i := 0; i < 256; i++ { // fill the kernel's event-shell free list
		c.armRTO()
	}
	if a := testing.AllocsPerRun(1000, c.armRTO); a != 0 {
		t.Fatalf("armRTO allocates %v per call, want 0", a)
	}
}

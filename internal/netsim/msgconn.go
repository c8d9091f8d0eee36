package netsim

import (
	"encoding/binary"
	"fmt"
)

// MsgConn frames tagged messages over a TCP connection: a 1-byte type, a
// 4-byte big-endian length, then the payload. The simulated app protocols
// (Facebook API, YouTube media, HTTP-ish web) all use this framing; the
// payload bytes are deterministic pseudo-random filler so RLC PDU head bytes
// are diverse (which the long-jump mapping relies on).
//
// Every app byte is written once: Send and SendFiller frame straight into
// the connection's send buffer, and the receive side hands a payload that
// lies inside one segment to OnMessage as an alias of that segment.
type MsgConn struct {
	Conn *Conn

	// Receive-side deframer state. hdr collects a header split across
	// segments (nhdr bytes so far); once it is complete, need is the
	// frame's payload length and part assembles a payload that spans
	// segments.
	hdr   [msgHeaderLen]byte
	nhdr  int
	need  int
	part  []byte
	onMsg func(kind byte, payload []byte)
}

const msgHeaderLen = 5

// maxMsgLen bounds a single framed message (sanity check against stream
// desync bugs).
const maxMsgLen = 64 << 20

// NewMsgConn wraps an established or connecting TCP connection.
func NewMsgConn(c *Conn) *MsgConn {
	m := &MsgConn{Conn: c}
	c.OnReceive(m.feed)
	return m
}

// OnMessage registers the message callback. The payload is read-only: it
// may alias the peer's send buffer. It may be kept past the callback,
// because its bytes are never overwritten.
func (m *MsgConn) OnMessage(fn func(kind byte, payload []byte)) { m.onMsg = fn }

// Send frames and sends one message.
func (m *MsgConn) Send(kind byte, payload []byte) {
	checkMsgLen(len(payload))
	c := m.Conn
	switch c.admit(msgHeaderLen + len(payload)) {
	case admitOK:
		copy(frame(c, kind, len(payload)), payload)
		c.trySend()
	case admitOverflow:
		c.Abort()
	}
}

// SendFiller sends a message whose payload is n deterministic pseudo-random
// bytes derived from the connection's kernel RNG. The filler is drawn on
// every path, even when the connection refuses or aborts, so the kernel
// RNG stream does not depend on connection state.
func (m *MsgConn) SendFiller(kind byte, n int) {
	checkMsgLen(n)
	c := m.Conn
	rng := c.stack.k.Rand()
	if res := c.admit(msgHeaderLen + n); res != admitOK {
		// On overflow the draw comes before Abort: its OnClose callback may
		// redial, and the new connection's ISS is the next draw.
		rng.Read(make([]byte, n))
		if res == admitOverflow {
			c.Abort()
		}
		return
	}
	rng.Read(frame(c, kind, n))
	c.trySend()
}

func checkMsgLen(n int) {
	if n < 0 || n > maxMsgLen {
		panic(fmt.Sprintf("netsim: message of %d bytes exceeds limit", n))
	}
}

// frame appends a message header for an n-byte payload to c's send buffer
// and returns the n payload bytes for the caller to fill.
func frame(c *Conn, kind byte, n int) []byte {
	f := c.grow(msgHeaderLen + n)
	f[0] = kind
	binary.BigEndian.PutUint32(f[1:msgHeaderLen], uint32(n))
	return f[msgHeaderLen:]
}

// feed parses frames out of one in-order segment. A payload wholly inside
// data is delivered as an alias of it; one that spans segments is assembled
// in part, which grows by doubling up to the frame length.
func (m *MsgConn) feed(data []byte) {
	for {
		if m.nhdr < msgHeaderLen {
			k := copy(m.hdr[m.nhdr:], data)
			m.nhdr += k
			data = data[k:]
			if m.nhdr < msgHeaderLen {
				return
			}
			m.need = int(binary.BigEndian.Uint32(m.hdr[1:]))
			if m.need > maxMsgLen {
				// Stream desync (corrupt framed length): the connection is
				// unrecoverable — reset it and let the app-level retry logic
				// reconnect rather than crashing the simulation.
				m.nhdr, m.part = 0, nil
				m.Conn.Abort()
				return
			}
		}
		var payload []byte
		if m.part == nil && len(data) >= m.need {
			payload = data[:m.need:m.need]
			data = data[m.need:]
		} else {
			if len(data) == 0 {
				return
			}
			k := min(len(data), m.need-len(m.part))
			if len(m.part)+k > cap(m.part) {
				grown := make([]byte, len(m.part), min(max(2*cap(m.part), len(m.part)+k), m.need))
				copy(grown, m.part)
				m.part = grown
			}
			m.part = append(m.part, data[:k]...)
			data = data[k:]
			if len(m.part) < m.need {
				return
			}
			payload = m.part
		}
		kind := m.hdr[0]
		m.nhdr, m.part = 0, nil
		if m.onMsg != nil {
			m.onMsg(kind, payload)
		}
	}
}

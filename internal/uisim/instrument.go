package uisim

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/simtime"
)

// Snapshot is a parsed copy of the layout tree: what the UI controller sees
// after one parsing pass. It reflects the tree state at the moment the parse
// started.
type Snapshot struct {
	At simtime.Time // parse completion time
	// Views is the flattened tree, shared with every other snapshot of the
	// same tree version: read it, never write to it.
	Views []SnapView
}

// SnapView is one flattened view in a snapshot.
type SnapView struct {
	Class, ID, Desc, Text string
	Shown                 bool
}

// Find returns the first snapshot view matching sig, or nil.
func (s *Snapshot) Find(sig Signature) *SnapView {
	for i := range s.Views {
		v := &s.Views[i]
		if (sig.Class == "" || v.Class == sig.Class) &&
			(sig.ID == "" || v.ID == sig.ID) &&
			(sig.Desc == "" || v.Desc == sig.Desc) {
			return v
		}
	}
	return nil
}

// VisibleMatch reports whether some view matching sig is shown.
func (s *Snapshot) VisibleMatch(sig Signature) bool {
	for i := range s.Views {
		v := &s.Views[i]
		if v.Shown &&
			(sig.Class == "" || v.Class == sig.Class) &&
			(sig.ID == "" || v.ID == sig.ID) &&
			(sig.Desc == "" || v.Desc == sig.Desc) {
			return true
		}
	}
	return false
}

// VisibleTextMatch reports whether some shown view matching sig has text
// containing substr.
func (s *Snapshot) VisibleTextMatch(sig Signature, substr string) bool {
	for i := range s.Views {
		v := &s.Views[i]
		if v.Shown &&
			(sig.Class == "" || v.Class == sig.Class) &&
			(sig.ID == "" || v.ID == sig.ID) &&
			(sig.Desc == "" || v.Desc == sig.Desc) &&
			strings.Contains(v.Text, substr) {
			return true
		}
	}
	return false
}

// ContainsText reports whether any shown view's text contains substr.
func (s *Snapshot) ContainsText(substr string) bool {
	for i := range s.Views {
		v := &s.Views[i]
		if v.Shown && len(substr) > 0 && strings.Contains(v.Text, substr) {
			return true
		}
	}
	return false
}

// Instrumentation is the simulation's InstrumentationTestCase: it shares the
// app's process, injects input events, and parses the layout tree. Parsing
// costs CPU time proportional to the tree size; that cost is both modeled in
// virtual time (it delays observations — the t_parsing of Fig. 4) and
// accumulated for the CPU-overhead measurement of Table 3.
type Instrumentation struct {
	k      *simtime.Kernel
	screen *Screen

	// Parse cost model: base + perView * treeSize.
	parseBase    time.Duration
	parsePerView time.Duration
	inputLatency time.Duration

	// cpuFraction is the share of a parse pass's wall time that is real
	// CPU work; the rest is spent waiting on the UI thread to hand over
	// the tree. It feeds the Table 3 CPU-overhead accounting.
	cpuFraction float64

	// pollInterval, when larger than the parse time, spaces WaitUntil
	// polls apart instead of parsing back-to-back. The paper's controller
	// parses continuously; long simulated playbacks use a coarser cadence
	// to bound event counts (documented in EXPERIMENTS.md).
	pollInterval time.Duration

	parseCPU time.Duration
	polling  bool

	// parseFree recycles in-flight parse requests: parses are frequent (a
	// WaitUntil polls back to back), so each reuses a request whose
	// completion callback was bound once.
	parseFree []*parseReq
}

// parseReq is one in-flight parse: the snapshot it took and the callback
// awaiting it. fire is complete bound to the request.
type parseReq struct {
	in   *Instrumentation
	snap Snapshot
	cb   func(*Snapshot)
	fire func()
}

// complete delivers the snapshot and returns the request to the pool.
func (r *parseReq) complete() {
	in := r.in
	r.snap.At = in.k.Now()
	r.cb(&r.snap)
	r.snap, r.cb = Snapshot{}, nil
	in.parseFree = append(in.parseFree, r)
}

// NewInstrumentation attaches an instrumentation to a screen.
func NewInstrumentation(k *simtime.Kernel, screen *Screen) *Instrumentation {
	return &Instrumentation{
		k:            k,
		screen:       screen,
		parseBase:    2 * time.Millisecond,
		parsePerView: 60 * time.Microsecond,
		inputLatency: 2 * time.Millisecond,
		cpuFraction:  0.05,
	}
}

// Screen returns the instrumented screen.
func (in *Instrumentation) Screen() *Screen { return in.screen }

// ParseCPU returns cumulative CPU time spent parsing the tree.
func (in *Instrumentation) ParseCPU() time.Duration { return in.parseCPU }

// ParseTime returns the current cost of one layout-tree parse.
func (in *Instrumentation) ParseTime() time.Duration {
	return in.parseBase + time.Duration(len(in.screen.flatten()))*in.parsePerView
}

// noteAction allocates a correlation ID for a user input, makes it the
// current trace scope (so every layer's events during this action share the
// ID), and arms the screen's input-to-draw attribution.
func (in *Instrumentation) noteAction(name string) {
	tr := in.screen.tr
	if tr == nil {
		return
	}
	id := tr.NewID()
	tr.SetScope(id)
	in.screen.noteInput(name, id)
}

// Parse performs one parsing pass: the result reflects the tree at call
// time and becomes available one ParseTime later, when cb is invoked. The
// *Snapshot is recycled when cb returns, so do not retain it beyond the
// callback. Its Views may be kept: they are shared and read-only, and later
// mutations never reach them.
func (in *Instrumentation) Parse(cb func(*Snapshot)) {
	in.screen.parses.Inc()
	var r *parseReq
	if n := len(in.parseFree); n > 0 {
		r = in.parseFree[n-1]
		in.parseFree = in.parseFree[:n-1]
	} else {
		r = &parseReq{in: in}
		r.fire = r.complete
	}
	r.snap.Views, r.cb = in.screen.flatten(), cb
	cost := in.ParseTime()
	in.parseCPU += time.Duration(float64(cost) * in.cpuFraction)
	in.k.After(cost, r.fire)
}

// WaitResult reports how a WaitUntil ended.
type WaitResult struct {
	Observed bool         // condition became true before the timeout
	At       simtime.Time // parse-completion time of the observing parse (t_m)
	Parses   int          // number of parsing passes performed
}

// WaitUntil polls the layout tree until cond holds on a snapshot or the
// timeout expires. Each poll costs one ParseTime; polls run back-to-back
// unless a pollInterval (SetPollInterval) spaces their starts further
// apart. This is the wait component of the see-interact-wait paradigm; the
// returned At is the raw measured timestamp t_m = t_ui + t_offset +
// t_parsing, which the analyzer later calibrates by subtracting 3/2
// t_parsing.
func (in *Instrumentation) WaitUntil(cond func(*Snapshot) bool, timeout time.Duration, done func(WaitResult)) {
	if in.polling {
		panic("uisim: concurrent WaitUntil on one instrumentation")
	}
	in.polling = true
	deadline := in.k.Now() + timeout
	parses := 0
	var start simtime.Time
	var poll func()
	// One parse callback for the whole wait (instead of a fresh closure per
	// poll): polls are the hottest allocation site in long waits.
	onParse := func(s *Snapshot) {
		if cond(s) {
			in.polling = false
			done(WaitResult{Observed: true, At: s.At, Parses: parses})
			return
		}
		if in.k.Now() >= deadline {
			in.polling = false
			done(WaitResult{Observed: false, At: s.At, Parses: parses})
			return
		}
		if next := start + in.pollInterval; next > in.k.Now() {
			in.k.At(next, poll)
			return
		}
		poll()
	}
	poll = func() {
		parses++
		start = in.k.Now()
		in.Parse(onParse)
	}
	poll()
}

// SetPollInterval spaces WaitUntil polls at least d apart (zero restores
// continuous back-to-back parsing).
func (in *Instrumentation) SetPollInterval(d time.Duration) { in.pollInterval = d }

// Click finds the view matching sig and dispatches a click to it after the
// input-injection latency. It returns the virtual time the click was
// injected (the measurement start time for user-triggered waits) or an
// error if no clickable view matches.
func (in *Instrumentation) Click(sig Signature) (simtime.Time, error) {
	v := in.screen.Root().Find(sig)
	if v == nil || !v.Shown() {
		return 0, fmt.Errorf("uisim: no visible view matches %v", sig)
	}
	if v.OnClick == nil {
		return 0, fmt.Errorf("uisim: view %v not clickable", sig)
	}
	in.noteAction("click")
	at := in.k.Now()
	in.k.After(in.inputLatency, v.OnClick)
	return at, nil
}

// Scroll dispatches a scroll gesture (dy > 0 scrolls content down, i.e. a
// pull-to-refresh style drag when at the top).
func (in *Instrumentation) Scroll(sig Signature, dy int) (simtime.Time, error) {
	v := in.screen.Root().Find(sig)
	if v == nil || !v.Shown() {
		return 0, fmt.Errorf("uisim: no visible view matches %v", sig)
	}
	if v.OnScroll == nil {
		return 0, fmt.Errorf("uisim: view %v not scrollable", sig)
	}
	in.noteAction("scroll")
	at := in.k.Now()
	in.k.After(in.inputLatency, func() { v.OnScroll(dy) })
	return at, nil
}

// EnterText types text into a matching EditText-like view.
func (in *Instrumentation) EnterText(sig Signature, text string) (simtime.Time, error) {
	v := in.screen.Root().Find(sig)
	if v == nil || !v.Shown() {
		return 0, fmt.Errorf("uisim: no visible view matches %v", sig)
	}
	in.noteAction("type")
	at := in.k.Now()
	in.k.After(in.inputLatency, func() {
		v.SetText(text)
		if v.OnText != nil {
			v.OnText(text)
		}
	})
	return at, nil
}

// PressEnter sends the ENTER key to a matching view (URL bars).
func (in *Instrumentation) PressEnter(sig Signature) (simtime.Time, error) {
	v := in.screen.Root().Find(sig)
	if v == nil || !v.Shown() {
		return 0, fmt.Errorf("uisim: no visible view matches %v", sig)
	}
	if v.OnEnter == nil {
		return 0, fmt.Errorf("uisim: view %v has no ENTER handler", sig)
	}
	in.noteAction("enter")
	at := in.k.Now()
	in.k.After(in.inputLatency, v.OnEnter)
	return at, nil
}

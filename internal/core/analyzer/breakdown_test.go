package analyzer_test

import (
	"testing"
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/radio"
	"repro/internal/simtime"
	"repro/internal/testbed"
)

// youtubeSession plays one video on the given bearer — the long,
// downlink-heavy 3G session the YouTube experiments diagnose.
func youtubeSession(t *testing.T, seed int64, profile *radio.Profile) *qoe.Session {
	t.Helper()
	b := testbed.MustNew(testbed.Options{Seed: seed, Profile: profile})
	b.YouTube.Connect()
	b.K.RunUntil(2 * time.Second)
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.YouTube.Screen, log)
	c.Timeout = 30 * time.Minute
	d := &controller.YouTubeDriver{C: c}
	done := false
	d.SearchAndPlay("g", 1, func(controller.WatchStats) { done = true })
	b.K.RunUntil(b.K.Now() + 20*time.Minute)
	if !done {
		t.Fatal("playback did not finish")
	}
	b.CloseObs()
	return b.Session(log)
}

// On real sessions of every app and both bearers, the indexed
// BreakdownWindow equals the original full-scan loop on every incident window
// Attributions diagnoses, and on a sweep of one-second windows over the
// whole radio log.
func TestBreakdownWindowMatchesReferenceOnSessions(t *testing.T) {
	sessions := map[string]*qoe.Session{
		"3g-upload":  uploadSession(21, radio.Profile3G(), 2, false),
		"3g-browse":  browseSession(22, radio.Profile3G(), 3, false),
		"lte-browse": browseSession(23, radio.ProfileLTE(), 2, false),
		"3g-youtube": youtubeSession(t, 24, radio.Profile3G()),
	}
	for name, sess := range sessions {
		t.Run(name, func(t *testing.T) {
			cl := analyzer.NewCrossLayer(sess)
			var windows []analyzer.QoEWindow
			for _, l := range analyzer.AnalyzeApp(sess.Behavior).Latencies {
				windows = append(windows, analyzer.WindowOf(l.Entry))
			}
			if len(windows) == 0 {
				t.Fatal("session has no incidents")
			}
			pdus := sess.Radio.PDUs
			if len(pdus) == 0 {
				t.Fatal("session has no radio log")
			}
			for at := pdus[0].At; at <= pdus[len(pdus)-1].At; at += simtime.Time(time.Second) {
				windows = append(windows, analyzer.QoEWindow{From: at, To: at + simtime.Time(time.Second)})
			}
			var sum analyzer.NetworkBreakdown // guards against a vacuous sweep
			for _, w := range windows {
				got := cl.BreakdownWindow(w.From, w.To)
				sum.IPToRLC += got.IPToRLC
				sum.FirstHopOTA += got.FirstHopOTA
				sum.RLCTransmission += got.RLCTransmission
				if want := analyzer.BreakdownWindowRefForTest(cl, w.From, w.To); got != want {
					t.Fatalf("window %v: got %+v, want %+v", w, got, want)
				}
			}
			if sum.IPToRLC <= 0 || sum.RLCTransmission <= 0 || sum.FirstHopOTA <= 0 {
				t.Fatalf("windows never exercised every radio component: %+v", sum)
			}
		})
	}
}

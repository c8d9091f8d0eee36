package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Profiler aggregates wall-clock cost per kernel callback site, for finding
// simulation hot paths. Unlike the trace bus it measures real time, so its
// output is NOT deterministic and never feeds an export that must be
// byte-stable — it is a human-facing report. A nil *Profiler absorbs
// observations for free.
type Profiler struct {
	sites map[string]*SiteStats
}

// SiteStats is the accumulated cost of one callback site (a function or
// closure creation site, identified by its symbol name).
type SiteStats struct {
	Site  string
	Count uint64
	Wall  time.Duration
}

// NewProfiler creates an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{sites: make(map[string]*SiteStats)}
}

// Observe records one callback dispatch.
func (p *Profiler) Observe(site string, wall time.Duration) {
	if p == nil {
		return
	}
	s := p.site(site)
	s.Count++
	s.Wall += wall
}

// Merge adds o's per-site dispatch counts and wall time into p. A profiler
// is single-goroutine, so kernels that run concurrently each get their own
// and are merged once they stop.
func (p *Profiler) Merge(o *Profiler) {
	if p == nil || o == nil {
		return
	}
	for name, os := range o.sites {
		s := p.site(name)
		s.Count += os.Count
		s.Wall += os.Wall
	}
}

func (p *Profiler) site(name string) *SiteStats {
	s, ok := p.sites[name]
	if !ok {
		s = &SiteStats{Site: name}
		p.sites[name] = s
	}
	return s
}

// Sites returns all sites sorted by cumulative wall time, descending.
func (p *Profiler) Sites() []SiteStats {
	if p == nil {
		return nil
	}
	out := make([]SiteStats, 0, len(p.sites))
	for _, s := range p.sites {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall > out[j].Wall
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// Report renders the top callback sites as a plain-text table. n <= 0 means
// all sites.
func (p *Profiler) Report(n int) string {
	if p == nil {
		return ""
	}
	sites := p.Sites()
	if n > 0 && len(sites) > n {
		sites = sites[:n]
	}
	var b strings.Builder
	var total time.Duration
	var events uint64
	for _, s := range p.Sites() {
		total += s.Wall
		events += s.Count
	}
	fmt.Fprintf(&b, "kernel profile: %d events, %v wall across %d sites\n", events, total, len(p.sites))
	fmt.Fprintf(&b, "%12s %10s %8s  %s\n", "wall", "events", "share", "callback site")
	for _, s := range sites {
		share := 0.0
		if total > 0 {
			share = float64(s.Wall) / float64(total) * 100
		}
		fmt.Fprintf(&b, "%12v %10d %7.1f%%  %s\n", s.Wall, s.Count, share, s.Site)
	}
	return b.String()
}

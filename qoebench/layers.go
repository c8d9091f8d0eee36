package main

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// profileLayers are the simulator layers the kernel profiler's callback
// sites roll up to; every other package lands in "other".
var profileLayers = []string{"radio", "netsim", "uisim", "apps", "controller", "other"}

// siteLayer maps a kernel callback site (a Go symbol such as
// "repro/internal/radio.(*Cell).txNext-fm") to its layer by package.
func siteLayer(site string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(site, prefix) {
		return "other"
	}
	pkg := site[len(prefix):]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	switch {
	case pkg == "radio", pkg == "netsim", pkg == "uisim":
		return pkg
	case strings.HasPrefix(pkg, "apps/"):
		return "apps"
	case pkg == "core/controller":
		return "controller"
	}
	return "other"
}

// profileRollup is the per-layer sum of profiled callback wall time.
type profileRollup struct {
	Wall   map[string]time.Duration
	Total  time.Duration
	Events uint64
}

// rollUp merges several kernels' profilers (one per shard) by layer.
func rollUp(profs []*obs.Profiler) profileRollup {
	r := profileRollup{Wall: make(map[string]time.Duration)}
	for _, p := range profs {
		for _, s := range p.Sites() {
			r.Wall[siteLayer(s.Site)] += s.Wall
			r.Total += s.Wall
			r.Events += s.Count
		}
	}
	return r
}

// Share is layer's fraction of profiled callback time.
func (r profileRollup) Share(layer string) float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.Wall[layer]) / float64(r.Total)
}

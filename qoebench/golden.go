package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenJSON pins, at defaultSeed, each fleet workload's report digest and
// exact event, intervention and handover counts. Regenerate it by running
// every fleet workload at the default seed and copying each report line's
// "counts" object here, after checking the change in behaviour is intended.
//
//go:embed golden.json
var goldenJSON []byte

func goldenFor(workload string) (fleetCounts, error) {
	var all map[string]fleetCounts
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return fleetCounts{}, fmt.Errorf("golden.json: %w", err)
	}
	c, ok := all[workload]
	if !ok {
		return fleetCounts{}, fmt.Errorf("golden.json has no entry for %s", workload)
	}
	return c, nil
}

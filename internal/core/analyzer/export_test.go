package analyzer

import "repro/internal/qxdm"

// Hooks for external tests (package analyzer_test), which need the seed
// linear mapper and the engine internals to prove equivalence.

// LongJumpMapLinear exposes the seed reference mapper.
func LongJumpMapLinear(packets []MappedPacket, pdus []qxdm.PDURecord) MappingResult {
	return longJumpMapLinear(packets, pdus)
}

// NewCrossLayerSerialForTest runs the seed engine directly, regardless of
// the process-wide engine selection.
var NewCrossLayerSerialForTest = newCrossLayerSerial

// NewCrossLayerParallelForTest runs the indexed concurrent engine directly.
var NewCrossLayerParallelForTest = newCrossLayerParallel

// SplitPacketsForTest exposes the capture UL/DL partition for benchmarks.
var SplitPacketsForTest = splitPackets

// BreakdownWindowRefForTest is the original full-scan BreakdownWindow.
var BreakdownWindowRefForTest = breakdownWindowRef

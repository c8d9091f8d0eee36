package analyzer

import "repro/internal/qxdm"

// Hooks for external tests (package analyzer_test), which need the original
// linear mapper and serial engine to prove equivalence.

// LongJumpMapLinear exposes the original reference mapper.
func LongJumpMapLinear(packets []MappedPacket, pdus []qxdm.PDURecord) MappingResult {
	return longJumpMapLinear(packets, pdus)
}

// NewCrossLayerSerialForTest runs the original serial engine.
var NewCrossLayerSerialForTest = newCrossLayerSerial

// NewCrossLayerParallelForTest runs the indexed concurrent engine.
var NewCrossLayerParallelForTest = NewCrossLayer

// SplitPacketsForTest exposes the capture UL/DL partition for benchmarks.
var SplitPacketsForTest = splitPackets

// BreakdownWindowRefForTest is the original full-scan BreakdownWindow.
var BreakdownWindowRefForTest = breakdownWindowRef

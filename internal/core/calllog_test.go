package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"gobolt/internal/core"
)

// TestCallLogArenaStability pins the arena recorder's aliasing contract:
// records appended early must keep their result values as the arenas
// grow (growth may reallocate the backing array, but previously returned
// slices keep the old array and its values), and Append must deep-copy
// every field of its input — the interned IDs included — so callers can
// reuse their scratch.
func TestCallLogArenaStability(t *testing.T) {
	var log core.CallLog
	scratch := []core.CallRecord{
		{DS: "ds", Method: "m", Results: []uint64{7, 8, 9}, Outcome: "hit", OpID: 3, OutcomeID: 5},
		{DS: "ds", Method: "n", Results: []uint64{10}},
	}
	first := log.Append(scratch)
	if !reflect.DeepEqual(first, scratch) {
		t.Fatalf("Append copied %+v, want %+v", first, scratch)
	}
	// Mutate the caller's scratch: the copied records must not see it.
	scratch[0].Results[0] = 999
	scratch[0].Outcome = "changed"
	if first[0].Results[0] != 7 || first[0].Outcome != "hit" {
		t.Fatalf("Append aliased its input: %+v", first[0])
	}

	// Force arena growth well past the initial capacity and confirm the
	// early slice still reads its original values.
	for i := 0; i < 200; i++ {
		log.Append([]core.CallRecord{{
			DS: "ds", Method: fmt.Sprintf("g%d", i), Results: []uint64{uint64(i), uint64(i + 1)},
		}})
	}
	if first[0].Results[0] != 7 || first[0].Results[1] != 8 || first[0].Results[2] != 9 {
		t.Fatalf("arena growth corrupted an early record: %v", first[0].Results)
	}
	if first[1].Results[0] != 10 {
		t.Fatalf("arena growth corrupted an early record: %v", first[1].Results)
	}

	// Records must have 3-indexed (non-appendable-into-neighbor) results:
	// appending to one record's results must never bleed into the next.
	grown := append(first[0].Results, 42)
	if first[1].Results[0] != 10 {
		t.Fatalf("append into record 0 results overwrote record 1: %v (grown %v)", first[1].Results, grown)
	}

	log.Reset()
	if len(log.Records()) != 0 {
		t.Fatalf("Reset left %d records", len(log.Records()))
	}
}

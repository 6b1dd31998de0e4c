package nfir

// This file defines the vocabulary of the sharability analysis (the
// shard dimension of performance contracts): how a stateful method
// addresses state (StateAccess, reported by models that implement
// SharabilityModel) and the per-call verdict the analysis derives from
// it (Sharing, attached to CallEvents).
//
// The analysis follows the state taxonomy of the NFork/automatic-
// parallelization line of work: state a call touches is *shard-local*
// when the call is keyed and the key determines the flow-hash fields an
// RSS-style dispatcher (monitor.FlowKey) routes by — the owning shard
// is then the only shard that ever touches the entry. Everything else
// is *shared*: read-only shared state replicates per core without
// contention (routing tables, match rulesets, the Maglev ring), while
// mutable shared state (expiry sweeps, port allocators, backend
// heartbeat stamps) is charged a per-contender coherence penalty.

// SharingClass is the three-way sharability verdict for one stateful
// call. The zero value is SharingUnknown: a call the analysis never saw
// is treated as shared-rw (conservative) by shard-aware evaluation.
type SharingClass int

const (
	// SharingUnknown means the call was never analysed; evaluation
	// treats it as shared-rw.
	SharingUnknown SharingClass = iota
	// SharingLocal: the call is keyed and its key pins the flow-hash
	// fields, so under flow-hash sharding only the owning shard ever
	// touches the addressed entry. No contention charge.
	SharingLocal
	// SharingSharedRO: the call reads state no call of the structure
	// mutates per packet in a flow-crossing way; the state replicates
	// per shard and costs nothing extra.
	SharingSharedRO
	// SharingSharedRW: the call touches mutable cross-flow state; each
	// of its memory accesses is charged the per-contender coherence
	// transfer in the shard-aware bound.
	SharingSharedRW
)

// String returns the wire spelling ("" for unknown — artifacts omit
// the field for unanalysed calls).
func (c SharingClass) String() string {
	switch c {
	case SharingLocal:
		return "local"
	case SharingSharedRO:
		return "shared-ro"
	case SharingSharedRW:
		return "shared-rw"
	default:
		return ""
	}
}

// ParseSharingClass is the strict inverse of String, used by the
// contract codec.
func ParseSharingClass(s string) (SharingClass, bool) {
	switch s {
	case "local":
		return SharingLocal, true
	case "shared-ro":
		return SharingSharedRO, true
	case "shared-rw":
		return SharingSharedRW, true
	case "":
		return SharingUnknown, true
	}
	return SharingUnknown, false
}

// Sharing is the sharability verdict attached to one analysed call.
type Sharing struct {
	Class SharingClass
	// Reason is a short, stable explanation ("key pins the flow-hash
	// fields", "expiry sweep over cross-flow state", …) rendered by
	// boltctl inspect and round-tripped by the codec.
	Reason string
}

// StateAccess describes how one method of a stateful data structure
// addresses the structure's state. Models report it through
// SharabilityModel; the analysis combines it with the call's symbolic
// arguments and the path's constraints to classify the call.
type StateAccess struct {
	// Keyed: the method addresses a single entry identified by the
	// argument words at KeyArgs (indices into the call's argument
	// list). Unkeyed methods scan or mutate state across entries.
	Keyed   bool
	KeyArgs []int
	// ReadOnly: the method never mutates the structure. Read-only
	// state replicates per shard, so unpinned read-only calls classify
	// shared-ro instead of shared-rw.
	ReadOnly bool
	// Shared forces a shared-rw verdict regardless of keying — for
	// methods that consult global resources besides the keyed entry
	// (e.g. a NAT add allocating from the shared port pool).
	Shared bool
	// Reason, when non-empty, overrides the generic explanation in the
	// recorded Sharing.
	Reason string
}

// SharabilityModel is an optional extension of Model: models that can
// describe how each method addresses state implement it, enabling the
// shard dimension of generated contracts. Methods of models that do not
// implement it (and methods StateAccess does not know) classify
// shared-rw — conservative, never unsound.
type SharabilityModel interface {
	StateAccess(method string) (StateAccess, bool)
}

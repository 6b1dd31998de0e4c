package dslib

import (
	"testing"

	"gobolt/internal/nfir"
	"gobolt/internal/perf"
)

func TestRuleSetMatching(t *testing.T) {
	env := newTestEnv()
	rs := NewRuleSet(env, []Rule{
		{SrcMask: 0xFF000000, SrcVal: 0x0A000000, DstMask: 0, DstVal: 0, Action: 1},               // accept 10/8
		{SrcMask: 0xFFFF0000, SrcVal: 0xC0A80000, ProtoVal: 17, DstMask: 0, DstVal: 0, Action: 0}, // deny 192.168/16 UDP
	}, 0)

	res, _, _ := invoke(t, env, rs, "match", 0x0A010101, 0x01020304, 80, 443, 6)
	if res[0] != 1 {
		t.Errorf("10.x src should accept, got %d", res[0])
	}
	res, _, _ = invoke(t, env, rs, "match", 0xC0A80001, 0x01020304, 80, 443, 17)
	if res[0] != 0 {
		t.Errorf("192.168 UDP should deny, got %d", res[0])
	}
	res, _, _ = invoke(t, env, rs, "match", 0x08080808, 0, 0, 0, 6)
	if res[0] != 0 {
		t.Errorf("default action should apply, got %d", res[0])
	}
}

func TestRuleSetContractDominates(t *testing.T) {
	env := newTestEnv()
	rules := make([]Rule, 10)
	for i := range rules {
		rules[i] = Rule{SrcMask: 0xFFFFFFFF, SrcVal: uint64(i), Action: 1}
	}
	rs := NewRuleSet(env, rules, 0)
	outs := rs.Model().Outcomes("match", nil, testFresh())
	contractIC := outs[0].Cost[perf.Instructions].ConstTerm()
	for _, src := range []uint64{0, 5, 9, 1234} {
		_, delta, _ := invoke(t, env, rs, "match", src, 0, 0, 0, 6)
		if delta.Instructions > contractIC {
			t.Errorf("match(%d) IC %d > contract %d", src, delta.Instructions, contractIC)
		}
	}
	// A full-miss scan is the coalesced worst case; an early match is
	// strictly cheaper (the contract's deliberate over-estimation).
	_, miss, _ := invoke(t, env, rs, "match", 9999, 0, 0, 0, 6)
	_, hit, _ := invoke(t, env, rs, "match", 0, 0, 0, 0, 6)
	if hit.Instructions >= miss.Instructions {
		t.Errorf("early match (%d) should beat full scan (%d)", hit.Instructions, miss.Instructions)
	}
}

func TestOptionProcessorCounts(t *testing.T) {
	env := newTestEnv()
	op := OptionProcessor{}

	// No options.
	res, delta, pcvs := invoke(t, env, op, "process", 5)
	if res[0] != 0 || pcvs[PCVOptions] != 0 {
		t.Fatalf("ihl=5: %v %v", res, pcvs)
	}
	if delta.Instructions != 0 {
		t.Errorf("ihl=5 must be free, IC = %d", delta.Instructions)
	}

	// Three timestamp slots (ihl = 8): write the option bytes first.
	pkt := make([]byte, 128)
	for slot := 0; slot < 3; slot++ {
		pkt[34+slot*4] = 68
	}
	env.ResetPacket(pkt, 0, 42)
	res, delta, pcvs = invoke2(t, env, op, "process", 8)
	if res[0] != 3 || pcvs[PCVOptions] != 3 {
		t.Fatalf("ihl=8: %v %v", res, pcvs)
	}
	// Contract: 79·n + fixed.
	outs := op.Model().Outcomes("process", nil, testFresh())
	ic := outs[1].Cost[perf.Instructions]
	if ic.Coef("n") != 79 {
		t.Errorf("per-option coefficient = %d, want 79", ic.Coef("n"))
	}
	bound := ic.Eval(map[string]uint64{"n": 3})
	if delta.Instructions > bound {
		t.Errorf("IC %d > contract %d", delta.Instructions, bound)
	}
	// Timestamp slots were filled.
	if env.Pkt[36] != 42 {
		t.Error("timestamp slot not written")
	}
}

// The timestamp byte the options processor writes lands past the end of
// a packet truncated inside its options; the next reset clears it.
func TestOptionProcessorStoreBeyondPacketEnd(t *testing.T) {
	env := newTestEnv()
	pkt := make([]byte, 128)
	pkt[34] = 68
	env.ResetPacket(pkt[:35], 0, 42) // ends one byte into the first slot
	if _, err := (OptionProcessor{}).Invoke("process", []uint64{6}, env); err != nil {
		t.Fatal(err)
	}
	if env.Pkt[36] != 42 {
		t.Fatal("timestamp slot not written")
	}
	env.ResetPacket(pkt[:20], 0, 43)
	for off, b := range env.Pkt[20:] {
		if b != 0 {
			t.Fatalf("byte %d past the packet is %#x after a reset", 20+off, b)
		}
	}
}

// invoke2 is invoke without the packet reset (the packet carries state).
func invoke2(t *testing.T, env *nfir.Env, ds nfir.ConcreteDS, method string, args ...uint64) ([]uint64, perf.Snapshot, map[string]uint64) {
	t.Helper()
	before := env.Meter.Snapshot()
	res, err := ds.Invoke(method, args, env)
	if err != nil {
		t.Fatalf("%s(%v): %v", method, args, err)
	}
	return res, env.Meter.Since(before), env.PCVs()
}

func TestOptionProcessorNonTimestampCheaper(t *testing.T) {
	env := newTestEnv()
	op := OptionProcessor{}
	pktTS := make([]byte, 128)
	pktNop := make([]byte, 128)
	for slot := 0; slot < 4; slot++ {
		pktTS[34+slot*4] = 68
		pktNop[34+slot*4] = 1 // NOP
	}
	env.ResetPacket(pktTS, 0, 1)
	_, dTS, _ := invoke2(t, env, op, "process", 9)
	env.ResetPacket(pktNop, 0, 1)
	_, dNop, _ := invoke2(t, env, op, "process", 9)
	if dNop.Instructions >= dTS.Instructions {
		t.Errorf("non-timestamp slots (%d IC) should be cheaper than timestamp (%d IC)",
			dNop.Instructions, dTS.Instructions)
	}
	// ihl beyond 15 is clamped, not a crash.
	env.ResetPacket(pktTS, 0, 1)
	if _, err := op.Invoke("process", []uint64{99}, env); err != nil {
		t.Error(err)
	}
}

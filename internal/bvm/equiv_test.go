package bvm

import (
	"maps"
	"testing"

	"gobolt/internal/nfir"
	"gobolt/internal/perf"
)

// equivNF holds one bytecode program instantiated twice with identical
// state: one copy driven by the interpreter, one by nfir's concrete
// execution of the compiled program. Feeding both the same packet
// sequence pins the compiler: actions, instruction counts, memory
// accesses, PCV observations and data-structure evolution must agree
// packet-for-packet.
type equivNF struct {
	unit       *Unit
	envI, envC *nfir.Env
	mI, mC     *perf.Meter
}

func newEquivNF(t testing.TB, unit *Unit) *equivNF {
	t.Helper()
	e := &equivNF{unit: unit, envI: nfir.NewEnv(), envC: nfir.NewEnv()}
	if _, err := unit.Instantiate(e.envI); err != nil {
		t.Fatalf("instantiate interpreter env: %v", err)
	}
	if _, err := unit.Instantiate(e.envC); err != nil {
		t.Fatalf("instantiate compiled env: %v", err)
	}
	e.mI, e.mC = perf.NewMeter(nil), perf.NewMeter(nil)
	e.envI.Meter, e.envC.Meter = e.mI, e.mC
	return e
}

// step runs one packet through both engines and cross-checks them.
func (e *equivNF) step(t testing.TB, pkt []byte, port, now uint64) {
	t.Helper()

	e.envI.ResetPacket(pkt, port, now)
	beforeI := e.mI.Snapshot()
	actI, errI := Run(e.unit.BC, e.envI)
	deltaI := e.mI.Since(beforeI)
	pcvI := e.envI.PCVs()

	e.envC.ResetPacket(pkt, port, now)
	beforeC := e.mC.Snapshot()
	actC, errC := e.envC.Run(e.unit.Prog)
	deltaC := e.mC.Since(beforeC)

	if (errI == nil) != (errC == nil) {
		t.Fatalf("%s: error divergence: interp=%v compiled=%v", e.unit.BC.Name, errI, errC)
	}
	if errI != nil {
		return
	}
	if actI != actC {
		t.Fatalf("%s: action divergence: interp=%+v compiled=%+v", e.unit.BC.Name, actI, actC)
	}
	if deltaI != deltaC {
		t.Fatalf("%s: cost divergence: interp=%+v compiled=%+v", e.unit.BC.Name, deltaI, deltaC)
	}
	if !maps.Equal(pcvI, e.envC.PCVs()) {
		t.Fatalf("%s: PCV divergence: interp=%v compiled=%v", e.unit.BC.Name, pcvI, e.envC.PCVs())
	}
	// Mutated packet bytes (e.g. decap's TTL decrement) must agree too.
	if string(e.envI.Pkt) != string(e.envC.Pkt) {
		t.Fatalf("%s: packet mutation divergence", e.unit.BC.Name)
	}
}

// loopSrc exercises the part of the lowering the shipped programs do
// not: a bounded loop (unrolled by the compiler, iterated by the
// interpreter) with register-offset packet loads inside the body.
const loopSrc = `
.name fuzz-loop
.ports 2
  mov r6, 0
  mov r7, 0
loop:
  ldpkt r4, r6, 1
  add r7, r4
  add r6, 1
  jlt r6, 12, loop
  and r7, 1
  jeq r7, 0, even
  drop
even:
  fwd 1
`

// fuzzUnits loads the programs the compiler fuzz target pins: every
// shipped NF plus the loop program.
func fuzzUnits(t testing.TB) []*Unit {
	t.Helper()
	var units []*Unit
	for _, sh := range shippedSources(t) {
		u, err := Load(sh.Src, Options{Source: "bvm:" + sh.File})
		if err != nil {
			t.Fatalf("%s: %v", sh.File, err)
		}
		units = append(units, u)
	}
	u, err := Load(loopSrc, Options{Source: "bvm:fuzz-loop"})
	if err != nil {
		t.Fatalf("loop program: %v", err)
	}
	return append(units, u)
}

// FuzzBVMCompiler is the differential oracle required by the frontend's
// soundness story: arbitrary packet sequences (fuzzer-chosen bytes,
// ports and inter-arrival gaps) through interpreter and compiled nfir
// must be indistinguishable — same actions, same metered cost, same
// PCVs, same state evolution across packets.
func FuzzBVMCompiler(f *testing.F) {
	units := fuzzUnits(f)
	// A plausible UDP frame and some degenerate shapes.
	f.Add([]byte{
		2, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 1, 0x08, 0x00,
		0x45, 0, 0, 46, 0, 0, 0, 0, 64, 17, 0, 0,
		10, 1, 2, 3, 192, 168, 9, 9,
		0x12, 0x34, 0x00, 0x35, 0, 26, 0, 0,
	}, uint64(1000))
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0x08, 0x00, 0x45}, uint64(1<<40))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		for _, unit := range units {
			e := newEquivNF(t, unit)
			now := 1_000 + seed%(1<<40)
			rest := data
			for len(rest) > 0 {
				n := 14 + int(rest[0])%100
				if n > len(rest) {
					n = len(rest)
				}
				pkt := rest[:n]
				rest = rest[n:]
				port := uint64(pkt[0]) % unit.BC.Ports
				e.step(t, pkt, port, now)
				now += 1 + (seed^uint64(len(rest)))%1_000_000
			}
		}
	})
}

// TestEquivalenceLoop drives the loop program over packets whose bytes
// hit both parity arms, including packets shorter than the loop's read
// window (reads past PktLen see zeros in both engines).
func TestEquivalenceLoop(t *testing.T) {
	unit, err := Load(loopSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := newEquivNF(t, unit)
	pkts := [][]byte{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14},
		{1},
		{},
		{255, 255, 255},
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1},
	}
	for i, pkt := range pkts {
		e.step(t, pkt, uint64(i)%2, uint64(1000+i))
	}
}

// A store past the end of a short packet must not leak into the next
// short packet: both engines write through env.StorePkt, and
// ResetPacket zeroes everything beyond the new packet's length that a
// store or a longer packet dirtied.
func TestStoreBeyondPacketEndDoesNotLeak(t *testing.T) {
	const src = `
.name tail-store
.ports 2
  ldpkt r5, 100, 1
  stpkt 100, 255, 1
  jeq r5, 0, clean
  drop
clean:
  fwd 1
`
	u, err := Load(src, Options{Source: "bvm:tail-store"})
	if err != nil {
		t.Fatal(err)
	}
	nf := newEquivNF(t, u)
	short := make([]byte, 20)
	for i := 0; i < 3; i++ {
		nf.step(t, short, 0, uint64(i))
		if nf.envI.Action.Kind != nfir.ActionForward || nf.envC.Action.Kind != nfir.ActionForward {
			t.Fatalf("packet %d read the previous packet's store past its end: interp %v, compiled %v",
				i, nf.envI.Action.Kind, nf.envC.Action.Kind)
		}
		if nf.envI.Pkt[100] != 255 || nf.envC.Pkt[100] != 255 {
			t.Fatalf("packet %d: store not applied", i)
		}
	}
	// The next reset clears the whole tail, not just the byte read.
	for _, env := range []*nfir.Env{nf.envI, nf.envC} {
		env.ResetPacket(short, 0, 3)
		for off, b := range env.Pkt[len(short):] {
			if b != 0 {
				t.Fatalf("byte %d past the packet is %#x after a reset", len(short)+off, b)
			}
		}
	}
}

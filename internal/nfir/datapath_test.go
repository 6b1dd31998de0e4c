package nfir

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"gobolt/internal/perf"
)

// byteHeap is the byte-per-map-entry heap the page table replaced, kept
// as the reference the paged Heap must be indistinguishable from.
type byteHeap map[uint64]byte

func (h byteHeap) read(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(h[addr+uint64(i)]) << (8 * i)
	}
	return v
}

func (h byteHeap) write(addr uint64, size int, v uint64) {
	for i := 0; i < size; i++ {
		h[addr+uint64(i)] = byte(v >> (8 * i))
	}
}

// Arbitrary 64-bit addresses — clustered ones that hit the last-page
// cache, page-straddling ones, and ones wrapping past 2^64 — read and
// write exactly as the byte map did.
func TestHeapMatchesByteMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h, ref := NewHeap(), byteHeap{}
	bases := []uint64{0, heapBase, heapPageSize - 3, 7*heapPageSize - 1, 1 << 40, ^uint64(0) - 5, rng.Uint64()}
	for i := 0; i < 20000; i++ {
		addr := bases[rng.Intn(len(bases))] + uint64(rng.Intn(12))
		if rng.Intn(16) == 0 {
			addr = rng.Uint64()
		}
		size := []int{1, 2, 4, 8}[rng.Intn(4)]
		if rng.Intn(2) == 0 {
			v := rng.Uint64()
			h.Write(addr, size, v)
			ref.write(addr, size, v)
		}
		if got, want := h.Read(addr, size), ref.read(addr, size); got != want {
			t.Fatalf("op %d: Read(%#x, %d) = %#x, want %#x", i, addr, size, got, want)
		}
	}
	before := len(h.pages)
	for i := 0; i < 1000; i++ {
		h.Read(rng.Uint64(), 8)
	}
	if len(h.pages) != before {
		t.Errorf("reads of unwritten memory materialised %d pages", len(h.pages)-before)
	}
}

// A short packet reads zeros beyond its length, whatever a longer
// predecessor or a store past the packet end left in the buffer.
func TestResetPacketZeroesTail(t *testing.T) {
	env := NewEnv()
	long := make([]byte, 200)
	for i := range long {
		long[i] = 0xAB
	}
	store := NewProgram("store", 0, []Stmt{
		PktStore{Off: C(300), Size: 8, Val: C(^uint64(0))},
		PktStore{Off: C(MaxPacket - 1), Size: 1, Val: C(0xFF)},
		Drop(),
	})
	env.ResetPacket(long, 0, 0)
	if _, err := env.Run(store); err != nil {
		t.Fatal(err)
	}

	read := NewProgram("read", 0, []Stmt{
		Set("in", Field(8, 2)),
		Set("old", Field(100, 8)),
		Set("stored", Field(300, 8)),
		Set("last", Field(MaxPacket-1, 1)),
		Drop(),
	})
	env.ResetPacket(long[:10], 0, 0)
	if at := tailDirt(env); at >= 0 {
		t.Fatalf("byte %d past a 10-byte packet is %#x", at, env.Pkt[at])
	}
	if _, err := env.Run(read); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{"in": 0xABAB, "old": 0, "stored": 0, "last": 0} {
		if got, _ := env.Local(name); got != want {
			t.Errorf("%s = %#x, want %#x", name, got, want)
		}
	}
}

// tailDirt returns the offset of the first nonzero byte of the buffer
// past the packet, or -1 when Pkt[PktLen:] is all zero.
func tailDirt(env *Env) int {
	for i, b := range env.Pkt[env.PktLen:] {
		if b != 0 {
			return int(env.PktLen) + i
		}
	}
	return -1
}

// ResetPacket clears only up to its high-water mark, so everything that
// dirties the buffer must raise it: an oversized packet, and stores
// through StorePkt (how nfir, bvm and dslib write) anywhere, past the
// packet's end or not. After any of them the next reset leaves
// Pkt[len:] all zero.
func TestResetPacketClearsDirtiedTail(t *testing.T) {
	env := NewEnv()
	full := make([]byte, MaxPacket+100)
	for i := range full {
		full[i] = 0xAB
	}
	check := func(what string) {
		t.Helper()
		if at := tailDirt(env); at >= 0 {
			t.Fatalf("%s: byte %d past a %d-byte packet is %#x", what, at, env.PktLen, env.Pkt[at])
		}
	}
	env.ResetPacket(full, 0, 0)
	if env.PktLen != MaxPacket {
		t.Fatalf("an oversized packet reads PktLen %d, want %d", env.PktLen, MaxPacket)
	}
	env.ResetPacket(full[:10], 0, 0)
	check("after an oversized packet")

	rng := rand.New(rand.NewSource(1))
	sizes := []int{1, 2, 4, 8}
	for i := 0; i < 2000; i++ {
		env.ResetPacket(full[:rng.Intn(MaxPacket+1)], 0, 0)
		check(fmt.Sprintf("reset %d", i))
		for k := rng.Intn(3); k > 0; k-- {
			size := sizes[rng.Intn(len(sizes))]
			env.StorePkt(uint64(rng.Intn(MaxPacket-size+1)), size, rng.Uint64()|1)
		}
	}
}

// NewProgram copies the caller's slices: editing them afterwards — a
// top-level statement, a nested one, a call's arguments or its
// destinations — changes neither what Run does nor the printed program
// nor the explored paths. A Program NewProgram did not build cannot run.
func TestCallerEditsCannotReachProgram(t *testing.T) {
	inner := []Stmt{Fwd(L("port"))}
	args := []Expr{Field(30, 4)}
	dsts := []string{"port", "found"}
	body := []Stmt{
		Call{DS: "table", Method: "get", Args: args, Dsts: dsts},
		IfElse(Eq(L("found"), C(1)), inner, []Stmt{Drop()}),
	}
	p := NewProgram("frozen", 4, body)
	env := NewEnv()
	env.Link("table", &fixedDS{results: []uint64{2, 1}})
	snapshot := func() (Action, string, string) {
		t.Helper()
		env.ResetPacket(ipv4Packet(), 0, 0)
		act, err := env.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		var paths strings.Builder
		for _, path := range explore(t, p, map[string]Model{"table": lookupModel{}}) {
			fmt.Fprintf(&paths, "%v %v %v %d/%d %d\n", path.Constraints, path.Action, path.Port,
				path.StatelessIC, path.StatelessMA, len(path.Events))
		}
		return act, p.String(), paths.String()
	}
	act, text, paths := snapshot()
	if act != (Action{ActionForward, 2}) {
		t.Fatalf("before edits: %+v", act)
	}

	body[1] = Fwd(C(3))
	inner[0] = Drop()
	args[0] = Field(26, 4)
	dsts[0], dsts[1] = "found", "port"
	gotAct, gotText, gotPaths := snapshot()
	if gotAct != act {
		t.Errorf("action after edits: %+v, want %+v", gotAct, act)
	}
	if gotText != text {
		t.Errorf("String after edits:\n%s\nwant:\n%s", gotText, text)
	}
	if gotPaths != paths {
		t.Errorf("paths after edits:\n%s\nwant:\n%s", gotPaths, paths)
	}

	if _, err := env.Run(&Program{Name: "zero"}); err == nil {
		t.Error("zero Program ran without error")
	}
}

// Linking a different implementation takes effect on the next Run, and
// so does wrapping: unwrapping puts the originals back.
func TestRelinkTakesEffectNextRun(t *testing.T) {
	env := NewEnv()
	env.Link("lpm", &fixedDS{results: []uint64{1}})
	p := etherTypeProgram()
	port := func() uint64 {
		t.Helper()
		env.ResetPacket(ipv4Packet(), 0, 0)
		act, err := env.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return act.Port
	}
	if got := port(); got != 1 {
		t.Fatalf("port = %d, want 1", got)
	}
	env.Link("lpm", &fixedDS{results: []uint64{2}})
	if got := port(); got != 2 {
		t.Errorf("after Link: port = %d, want 2", got)
	}
	var orig ConcreteDS
	env.WrapLinked(func(_ string, ds ConcreteDS) ConcreteDS {
		orig = ds
		return &fixedDS{results: []uint64{3}}
	})
	if got := port(); got != 3 {
		t.Errorf("after WrapLinked: port = %d, want 3", got)
	}
	env.WrapLinked(func(string, ConcreteDS) ConcreteDS { return orig })
	if got := port(); got != 2 {
		t.Errorf("after unwrapping: port = %d, want 2", got)
	}
}

// One *Program may be run from many goroutines at once, each on its own
// Env (run with -race).
func TestConcurrentRunsShareProgram(t *testing.T) {
	p := etherTypeProgram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := NewEnv()
			env.Meter = perf.NewMeter(nil)
			env.Link("lpm", &fixedDS{results: []uint64{3}})
			for i := 0; i < 200; i++ {
				env.ResetPacket(ipv4Packet(), 0, 0)
				if act, err := env.Run(p); err != nil || act.Port != 3 {
					t.Errorf("run %d: %+v, %v", i, act, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// The per-packet path allocates nothing once an Env has run a program:
// no maps, no argument or result slices.
func TestRunAllocatesNothing(t *testing.T) {
	env := NewEnv()
	env.Meter = perf.NewMeter(nil)
	env.Link("tbl", &scriptDS{})
	p := NewProgram("calls", 0, []Stmt{
		Invoke("tbl", "count", []Expr{Field(0, 4), Now{}}, "n"),
		Set("i", C(0)),
		While{Cond: Lt(L("i"), C(3)), MaxIter: 4, Body: []Stmt{Set("i", Add(L("i"), C(1)))}},
		Invoke("tbl", "none", nil),
		Fwd(L("n")),
	})
	pkt := ipv4Packet()
	if allocs := testing.AllocsPerRun(200, func() {
		env.ResetPacket(pkt, 1, 2)
		if _, err := env.Run(p); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ResetPacket+Run: %v allocs/packet, want 0", allocs)
	}
}

package core

import (
	"fmt"

	"gobolt/internal/nfir"
	"gobolt/internal/perf"
)

// replay is the Replay stage (Algorithm 2 line 7): execute the path's
// witness through the model-linked build and check that the trace
// matches the symbolic analysis — action, stateless instruction count,
// and memory accesses. Each replay builds a private environment, so
// replays of different paths can run concurrently.
func (g *Generator) replay(prog *nfir.Program, pa *nfir.Path, witness map[string]uint64) error {
	env := nfir.NewEnv()
	env.Meter = perf.NewMeter(nil)
	pkt := make([]byte, nfir.MaxPacket)
	for name, v := range witness {
		if off, size, ok := nfir.ParseFieldSym(name); ok {
			writeBE(pkt[off:], size, v)
		}
	}
	pktLen := witness[nfir.SymPktLen]
	if pktLen == 0 || pktLen > nfir.MaxPacket {
		pktLen = nfir.MaxPacket
	}
	env.ResetPacket(pkt[:pktLen], witness[nfir.SymInPort], witness[nfir.SymNow])
	stub := &replayDS{events: pa.Events, witness: witness}
	for ds := range pathDSNames(pa) {
		env.Link(ds, stub)
	}
	act, err := env.Run(prog)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if act.Kind != pa.Action {
		return fmt.Errorf("replay diverged: action %v, symbolic %v", act.Kind, pa.Action)
	}
	if env.Meter.Instructions() != pa.StatelessIC || env.Meter.MemAccesses() != pa.StatelessMA {
		return fmt.Errorf("replay cost mismatch: measured %d IC/%d MA, symbolic %d/%d",
			env.Meter.Instructions(), env.Meter.MemAccesses(), pa.StatelessIC, pa.StatelessMA)
	}
	return nil
}

func pathDSNames(pa *nfir.Path) map[string]bool {
	names := make(map[string]bool)
	for _, ev := range pa.Events {
		names[ev.DS] = true
	}
	return names
}

// replayDS replays the recorded model outcomes: each call returns the
// witness's values for the outcome's result symbols and charges nothing
// (the cost comes from the data-structure contract).
type replayDS struct {
	events  []nfir.CallEvent
	witness map[string]uint64
	idx     int
}

// Invoke implements nfir.ConcreteDS.
func (r *replayDS) Invoke(method string, args []uint64, env *nfir.Env) ([]uint64, error) {
	if r.idx >= len(r.events) {
		return nil, fmt.Errorf("replay: unexpected call %s (only %d events)", method, len(r.events))
	}
	ev := r.events[r.idx]
	r.idx++
	if ev.Method != method {
		return nil, fmt.Errorf("replay: call %s, recorded %s.%s", method, ev.DS, ev.Method)
	}
	out := env.Results()
	for _, res := range ev.Outcome.Results {
		out = append(out, res.Eval(r.witness))
	}
	return out, nil
}

func writeBE(b []byte, size int, v uint64) {
	for i := size - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

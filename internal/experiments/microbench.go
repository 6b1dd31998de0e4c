package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"gobolt/internal/expr"
	"gobolt/internal/hwmodel"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// MicrobenchRow is one row of the §5.1 hardware-model validation: the
// conservative model's cycle prediction against the detailed model for
// three memory-access patterns.
type MicrobenchRow struct {
	Program   string
	Predicted uint64
	Measured  uint64
}

// Ratio is predicted ÷ measured.
func (r MicrobenchRow) Ratio() float64 {
	if r.Measured == 0 {
		return 0
	}
	return float64(r.Predicted) / float64(r.Measured)
}

// traversal is the expert-analysed data structure backing P1–P3: a walk
// over n nodes with a configurable layout. Its contract is written the
// way §3.2 prescribes — including the conservative model's provable-hit
// reasoning (an array packs 8 elements per line, so 7 of every 8 loads
// provably hit L1).
type traversal struct {
	addrs     []uint64
	dependent bool
	// elemsPerLine > 1 marks same-line packing (the array case).
	elemsPerLine int
}

const traversalALUPerNode = 2 // advance + accumulate

func (tr *traversal) Invoke(method string, args []uint64, env *nfir.Env) ([]uint64, error) {
	if method != "walk" || len(args) != 1 {
		return nil, fmt.Errorf("traversal: unknown method %q", method)
	}
	n := int(args[0])
	if n > len(tr.addrs) {
		n = len(tr.addrs)
	}
	var sum uint64
	for i := 0; i < n; i++ {
		env.Meter.Exec(perf.OpALU, traversalALUPerNode)
		env.Meter.Load(tr.addrs[i], 8, tr.dependent)
		sum += tr.addrs[i]
	}
	env.ObservePCV("n", uint64(n))
	return []uint64{sum}, nil
}

// Model returns the single-outcome model with the expert cycle contract.
func (tr *traversal) Model() nfir.Model { return travModel{tr: tr} }

type travModel struct{ tr *traversal }

func (m travModel) Outcomes(method string, args []symb.Expr, fresh nfir.FreshFn) []nfir.Outcome {
	if method != "walk" {
		return nil
	}
	sum := fresh("sum")
	n := uint64(len(m.tr.addrs))
	// Conservative per-node cycles: worst-case ALU plus the memory
	// charge. With k elements per line, the expert can prove that k-1 of
	// every k accesses hit L1D (spatial locality, §3.5); everything else
	// is DRAM.
	k := uint64(1)
	if m.tr.elemsPerLine > 1 {
		k = uint64(m.tr.elemsPerLine)
	}
	perNodeTimesK := traversalALUPerNode*hwmodel.WorstALU*float64(k) +
		(hwmodel.MemIssue + hwmodel.LatDRAM) +
		float64(k-1)*(hwmodel.MemIssue+hwmodel.LatL1)
	perNode := uint64(perNodeTimesK/float64(k)) + 1
	return []nfir.Outcome{{
		Label:   "ok",
		Results: []symb.Expr{sum},
		Domains: map[string]symb.Domain{sum.Name: symb.Full},
		Cost: map[perf.Metric]expr.Poly{
			perf.Instructions: expr.Term(traversalALUPerNode+1, "n"),
			perf.MemAccesses:  expr.Term(1, "n"),
			perf.Cycles:       expr.Term(perNode, "n"),
		},
		PCVs: []nfir.PCV{{Name: "n", Range: expr.Range{Lo: 0, Hi: n}}},
	}}
}

// Microbench runs the P1–P3 experiment with n nodes each.
//
//	P1: linked list, nodes scattered (no prefetch, no MLP)  → ratio ≈ 1
//	P2: linked list in one contiguous chunk (prefetch only) → ratio ≈ 6
//	P3: array (prefetch + MLP)                              → ratio ≈ 9
func Microbench(n int) ([]MicrobenchRow, error) {
	rng := rand.New(rand.NewSource(42))

	scattered := make([]uint64, n)
	for i := range scattered {
		scattered[i] = 0x4000_0000 + uint64(rng.Intn(1<<24))*64
	}
	contiguous := make([]uint64, n)
	for i := range contiguous {
		contiguous[i] = 0x5000_0000 + uint64(i)*64
	}
	array := make([]uint64, n)
	for i := range array {
		array[i] = 0x6000_0000 + uint64(i)*8
	}

	programs := []struct {
		name string
		tr   *traversal
	}{
		{"P1 (scattered linked list)", &traversal{addrs: scattered, dependent: true}},
		{"P2 (contiguous linked list)", &traversal{addrs: contiguous, dependent: true}},
		{"P3 (array)", &traversal{addrs: array, dependent: false, elemsPerLine: 8}},
	}

	var rows []MicrobenchRow
	for _, p := range programs {
		prog := nfir.NewProgram(p.name, 0, []nfir.Stmt{
			nfir.Invoke("mem", "walk", []nfir.Expr{nfir.C(uint64(n))}, "sum"),
			nfir.Fwd(nfir.C(0)),
		})
		// Predicted: the contract's cycle polynomial at n.
		outs := p.tr.Model().Outcomes("walk", nil, func(h string) symb.Sym { return symb.Sym{Name: h} })
		predicted := outs[0].Cost[perf.Cycles].Eval(map[string]uint64{"n": uint64(n)})

		// Measured: the detailed model over the production run.
		det := hwmodel.NewDetailed()
		env := nfir.NewEnv()
		env.Meter = perf.NewMeter(det)
		env.Link("mem", p.tr)
		env.ResetPacket(nil, 0, 0)
		if _, err := env.Run(prog); err != nil {
			return nil, err
		}
		rows = append(rows, MicrobenchRow{
			Program:   p.name,
			Predicted: predicted,
			Measured:  det.Cycles(),
		})
	}
	return rows, nil
}

// RenderMicrobench prints the P1–P3 rows.
func RenderMicrobench(rows []MicrobenchRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %12s %12s %8s\n", "Program", "Predicted", "Measured", "Ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %12d %12d %8.2f\n", r.Program, r.Predicted, r.Measured, r.Ratio())
	}
	return b.String()
}

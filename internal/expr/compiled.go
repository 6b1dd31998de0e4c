package expr

import (
	"fmt"
	"sort"
)

// CompiledPoly is a Poly lowered onto a fixed variable order: evaluation
// reads a flat value vector and touches neither maps nor monomial
// strings. The online monitor compiles each contract path's bound once
// and evaluates it on every packet.
//
// Term i is coef[i] times the product of vals[idx[j]] over j in
// [end[i-1], end[i]) — a variable raised to power k appears k times.
type CompiledPoly struct {
	c    uint64
	coef []uint64
	end  []int32
	idx  []int32
}

// Compile lowers the polynomial onto the variable order vars. Every
// variable the polynomial mentions must appear in vars; Eval then takes
// the variables' values in exactly this order.
func (p Poly) Compile(vars []string) (*CompiledPoly, error) {
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	cp := &CompiledPoly{}
	for _, m := range p.Monos() {
		coef := p.Coef(m)
		if m == ConstMono {
			cp.c += coef
			continue
		}
		pows := m.Powers()
		names := make([]string, 0, len(pows))
		for v := range pows {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, v := range names {
			i, ok := idx[v]
			if !ok {
				return nil, fmt.Errorf("expr: compile: variable %q not in the value-vector order", v)
			}
			for k := 0; k < pows[v]; k++ {
				cp.idx = append(cp.idx, int32(i))
			}
		}
		cp.coef = append(cp.coef, coef)
		cp.end = append(cp.end, int32(len(cp.idx)))
	}
	return cp, nil
}

// Eval computes the polynomial at the value vector whose order Compile
// fixed. Arithmetic wraps exactly like Poly.Eval.
func (cp *CompiledPoly) Eval(vals []uint64) uint64 {
	total, f := cp.c, 0
	for i, v := range cp.coef {
		end := int(cp.end[i])
		for ; f < end; f++ {
			v *= vals[cp.idx[f]]
		}
		total += v
	}
	return total
}

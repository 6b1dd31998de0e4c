package expr

// This file keeps the map-based polynomial (a Go map from monomial to
// coefficient) that Poly's sorted term slices replaced, verbatim but for
// the map prefix on its names, as a test-only oracle: FuzzPolyOracle
// checks every Poly operation against it. It shares Mono, Range,
// Ordering, displayLess and boxPoints with Poly, whose representation
// they do not depend on.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// mapPoly is a performance expression: a polynomial over PCVs with uint64
// coefficients. The zero value is the zero polynomial. mapPoly values are
// immutable once shared; all operations return new polynomials.
type mapPoly struct {
	terms map[Mono]uint64
}

// mapZero returns the zero polynomial.
func mapZero() mapPoly { return mapPoly{} }

// mapConst returns the constant polynomial c.
func mapConst(c uint64) mapPoly {
	if c == 0 {
		return mapPoly{}
	}
	return mapPoly{terms: map[Mono]uint64{ConstMono: c}}
}

// mapVar returns the polynomial 1·name.
func mapVar(name string) mapPoly {
	return mapPoly{terms: map[Mono]uint64{NewMono(name): 1}}
}

// mapTerm returns the polynomial coef·mono.
func mapTerm(coef uint64, vars ...string) mapPoly {
	if coef == 0 {
		return mapPoly{}
	}
	return mapPoly{terms: map[Mono]uint64{NewMono(vars...): coef}}
}

// mapFromTerms builds a polynomial from a monomial→coefficient map; zero
// coefficients are dropped. The input map is copied.
func mapFromTerms(terms map[Mono]uint64) mapPoly {
	p := mapPoly{terms: make(map[Mono]uint64, len(terms))}
	for m, c := range terms {
		if c != 0 {
			p.terms[m] = c
		}
	}
	if len(p.terms) == 0 {
		return mapPoly{}
	}
	return p
}

// IsZero reports whether p is the zero polynomial.
func (p mapPoly) IsZero() bool { return len(p.terms) == 0 }

// Coef returns the coefficient of the given monomial (0 if absent).
func (p mapPoly) Coef(m Mono) uint64 { return p.terms[m] }

// ConstTerm returns the constant coefficient.
func (p mapPoly) ConstTerm() uint64 { return p.terms[ConstMono] }

// AppendMonos appends the monomials with non-zero coefficients to dst in
// no particular order.
func (p mapPoly) AppendMonos(dst []Mono) []Mono {
	for m := range p.terms {
		dst = append(dst, m)
	}
	return dst
}

// Monos returns the monomials with non-zero coefficients, in display order.
func (p mapPoly) Monos() []Mono {
	ms := p.AppendMonos(make([]Mono, 0, len(p.terms)))
	sort.Slice(ms, func(i, j int) bool { return displayLess(ms[i], ms[j]) })
	return ms
}

// Vars returns the sorted set of PCV names appearing in p.
func (p mapPoly) Vars() []string {
	seen := make(map[string]bool)
	for m := range p.terms {
		for v := range m.Powers() {
			seen[v] = true
		}
	}
	vars := make([]string, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

// Degree returns the total degree of p (0 for constants and zero).
func (p mapPoly) Degree() int {
	d := 0
	for m := range p.terms {
		if md := m.Degree(); md > d {
			d = md
		}
	}
	return d
}

// IsMultilinear reports whether no PCV appears with power > 1 in any term.
// Multilinear polynomials attain their extrema over a box at its corners,
// which CompareAssuming exploits for exact comparison.
func (p mapPoly) IsMultilinear() bool {
	for m := range p.terms {
		for _, k := range m.Powers() {
			if k > 1 {
				return false
			}
		}
	}
	return true
}

// Add returns p + q. It builds the one result map and drops sums that
// wrap to zero in place; a zero operand returns the other unchanged
// (polynomials are immutable, so sharing its terms is safe).
func (p mapPoly) Add(q mapPoly) mapPoly {
	if len(q.terms) == 0 {
		return p
	}
	if len(p.terms) == 0 {
		return q
	}
	out := make(map[Mono]uint64, len(p.terms)+len(q.terms))
	for m, c := range p.terms {
		out[m] = c
	}
	for m, c := range q.terms {
		if s := out[m] + c; s != 0 {
			out[m] = s
		} else {
			delete(out, m)
		}
	}
	if len(out) == 0 {
		return mapPoly{}
	}
	return mapPoly{terms: out}
}

// Scale returns k·p.
func (p mapPoly) Scale(k uint64) mapPoly {
	if k == 0 {
		return mapPoly{}
	}
	out := make(map[Mono]uint64, len(p.terms))
	for m, c := range p.terms {
		out[m] = c * k
	}
	return mapFromTerms(out)
}

// Mul returns p · q.
func (p mapPoly) Mul(q mapPoly) mapPoly {
	out := make(map[Mono]uint64, len(p.terms)*len(q.terms))
	for m1, c1 := range p.terms {
		for m2, c2 := range q.terms {
			out[m1.mul(m2)] += c1 * c2
		}
	}
	return mapFromTerms(out)
}

// MulVar returns p · name, a common operation when an expert contract
// charges a per-iteration cost "per expired entry" etc.
func (p mapPoly) MulVar(name string) mapPoly { return p.Mul(mapVar(name)) }

// Eval computes p under the given PCV binding. It panics on unbound PCVs,
// because silently defaulting a PCV to zero hides contract-evaluation bugs.
func (p mapPoly) Eval(binding map[string]uint64) uint64 {
	var total uint64
	for m, c := range p.terms {
		total += c * m.eval(binding)
	}
	return total
}

// mapUpperEnvelope returns the per-monomial maximum of p and q. Because PCVs
// and coefficients are non-negative, the result bounds both p and q from
// above everywhere; it is the cheap sound coalescing operation used when
// no single path dominates the others.
func mapUpperEnvelope(p, q mapPoly) mapPoly {
	out := make(map[Mono]uint64, len(p.terms)+len(q.terms))
	for m, c := range p.terms {
		out[m] = c
	}
	for m, c := range q.terms {
		if c > out[m] {
			out[m] = c
		}
	}
	return mapFromTerms(out)
}

// mapCompareAssuming compares p and q for all PCV values within ranges.
// PCVs absent from ranges default to [0, DefaultHi].
//
// The verdict is always sound. For multilinear pairs the difference is
// multilinear, so it attains its extrema at the box corners and the
// corner check is exact. For anything else only the termwise
// coefficient comparison is used (sound because PCVs are non-negative),
// which may report Incomparable for inputs that are in fact ordered —
// the conservative direction for coalescing.
func mapCompareAssuming(p, q mapPoly, ranges map[string]Range) Ordering {
	// Termwise ordering decides any pair soundly, including
	// non-multilinear ones.
	pLeq, qLeq := mapTermwiseLeq(p, q), mapTermwiseLeq(q, p)
	switch {
	case pLeq && qLeq:
		return AlwaysEq
	case pLeq:
		return AlwaysLeq
	case qLeq:
		return AlwaysGeq
	}
	if !(p.IsMultilinear() && q.IsMultilinear()) {
		return Incomparable
	}
	vars := mapUnionVars(p, q)
	if len(vars) > 16 {
		// Corner enumeration would explode; callers with that many PCVs
		// should compare term-wise instead.
		return Incomparable
	}
	points := boxPoints(vars, ranges)
	leq, geq := true, true
	for _, pt := range points {
		pv, qv := p.Eval(pt), q.Eval(pt)
		if pv > qv {
			leq = false
		}
		if pv < qv {
			geq = false
		}
	}
	switch {
	case leq && geq:
		return AlwaysEq
	case leq:
		return AlwaysLeq
	case geq:
		return AlwaysGeq
	default:
		return Incomparable
	}
}

// mapTermwiseLeq reports whether every coefficient of p is ≤ the matching
// coefficient of q — a sound pointwise-≤ certificate for non-negative
// PCVs.
func mapTermwiseLeq(p, q mapPoly) bool {
	for m, c := range p.terms {
		if c > q.terms[m] {
			return false
		}
	}
	return true
}

func mapUnionVars(p, q mapPoly) []string {
	seen := make(map[string]bool)
	for _, v := range p.Vars() {
		seen[v] = true
	}
	for _, v := range q.Vars() {
		seen[v] = true
	}
	vars := make([]string, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

// mapMaxAssuming returns the pointwise-larger of p and q over the box if one
// dominates, and otherwise their UpperEnvelope (sound but possibly loose).
func mapMaxAssuming(p, q mapPoly, ranges map[string]Range) mapPoly {
	switch mapCompareAssuming(p, q, ranges) {
	case AlwaysLeq, AlwaysEq:
		return q
	case AlwaysGeq:
		return p
	default:
		return mapUpperEnvelope(p, q)
	}
}

// String renders the polynomial legibly with '·' for products, e.g.
// "4·l + 5". The zero polynomial renders as "0".
func (p mapPoly) String() string {
	if p.IsZero() {
		return "0"
	}
	var b strings.Builder
	for i, m := range p.Monos() {
		if i > 0 {
			b.WriteString(" + ")
		}
		c := p.terms[m]
		if m == ConstMono {
			b.WriteString(strconv.FormatUint(c, 10))
			continue
		}
		if c != 1 {
			b.WriteString(strconv.FormatUint(c, 10))
			b.WriteString("·")
		}
		b.WriteString(strings.ReplaceAll(string(m), "*", "·"))
	}
	return b.String()
}

// mapParse parses the String rendering back into a polynomial. It accepts
// '·' or '*' as the product sign and arbitrary spacing around '+'.
func mapParse(s string) (mapPoly, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return mapPoly{}, fmt.Errorf("expr: empty polynomial")
	}
	if s == "0" {
		return mapPoly{}, nil
	}
	out := make(map[Mono]uint64)
	for _, raw := range strings.Split(s, "+") {
		term := strings.TrimSpace(raw)
		if term == "" {
			return mapPoly{}, fmt.Errorf("expr: empty term in %q", s)
		}
		if strings.HasPrefix(term, "·") || strings.HasSuffix(term, "·") ||
			strings.HasPrefix(term, "*") || strings.HasSuffix(term, "*") {
			return mapPoly{}, fmt.Errorf("expr: dangling product sign in %q", term)
		}
		coef := uint64(1)
		var vars []string
		factors := strings.FieldsFunc(term, func(r rune) bool { return r == '·' || r == '*' })
		for i, f := range factors {
			f = strings.TrimSpace(f)
			if f == "" {
				return mapPoly{}, fmt.Errorf("expr: empty factor in %q", term)
			}
			if c, err := strconv.ParseUint(f, 10, 64); err == nil {
				if i != 0 {
					return mapPoly{}, fmt.Errorf("expr: numeric factor %q must lead the term", f)
				}
				coef = c
				continue
			}
			name, k := f, 1
			if j := strings.IndexByte(f, '^'); j >= 0 {
				var err error
				k, err = strconv.Atoi(f[j+1:])
				if err != nil || k < 1 {
					return mapPoly{}, fmt.Errorf("expr: bad power in %q", f)
				}
				name = f[:j]
			}
			for x := 0; x < k; x++ {
				vars = append(vars, name)
			}
		}
		out[NewMono(vars...)] += coef
	}
	return mapFromTerms(out), nil
}

// Derivative returns ∂p/∂v, the formal derivative with respect to one
// PCV. Operators use it for sensitivity statements like Figure 2's
// "each extra traversal costs 50 instructions": the derivative of the
// class expression with respect to t.
func (p mapPoly) Derivative(v string) mapPoly {
	out := make(map[Mono]uint64)
	for m, c := range p.terms {
		pow := m.Powers()
		k, ok := pow[v]
		if !ok {
			continue
		}
		pow[v] = k - 1
		out[monoFromPowers(pow)] += c * uint64(k)
	}
	return mapFromTerms(out)
}

// RenameVars rewrites every PCV name through fn; chain composition uses
// it to namespace the PCVs of each NF in a composite contract.
func (p mapPoly) RenameVars(fn func(string) string) mapPoly {
	out := make(map[Mono]uint64, len(p.terms))
	for m, c := range p.terms {
		pow := m.Powers()
		renamed := make(map[string]int, len(pow))
		for v, k := range pow {
			renamed[fn(v)] += k
		}
		out[monoFromPowers(renamed)] += c
	}
	return mapFromTerms(out)
}

// EvalFloat computes p under a float binding; used by reports that bind
// PCVs to workload averages rather than integers.
func (p mapPoly) EvalFloat(binding map[string]float64) float64 {
	total := 0.0
	for m, c := range p.terms {
		v := float64(c)
		for name, k := range m.Powers() {
			x, ok := binding[name]
			if !ok {
				panic("expr: unbound PCV " + name)
			}
			v *= math.Pow(x, float64(k))
		}
		total += v
	}
	return total
}

// polyGen turns fuzz bytes into polynomials, reading 0 once the bytes
// run out.
type polyGen struct{ data []byte }

func (g *polyGen) next() int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b)
}

// pick returns one of xs, chosen by the next byte.
func pick[T any](g *polyGen, xs []T) T { return xs[g.next()%len(xs)] }

var (
	// fuzzNames include the composition prefix and the shard PCV.
	fuzzNames = []string{"a", "b", "c", "b.a", ShardPCV}
	// fuzzCoefs make sums and products wrap to zero: 1 + MaxUint64,
	// 2⁶³ + 2⁶³, 2·2⁶³.
	fuzzCoefs = []uint64{1, 2, 3, 7, 100, 1 << 32, 1 << 63, math.MaxUint64, math.MaxUint64 - 1}
)

// poly builds a polynomial of up to six terms, each the product of up
// to three names — none is the constant term, a repeat is a power —
// three ways: FromTerms, the oracle, and a chain of Adds. The last two
// must agree.
func (g *polyGen) poly(t *testing.T) (Poly, mapPoly) {
	terms := map[Mono]uint64{}
	sum := Zero()
	for range g.next() % 7 {
		vars := make([]string, g.next()%4)
		for i := range vars {
			vars[i] = pick(g, fuzzNames)
		}
		c := pick(g, fuzzCoefs)
		terms[NewMono(vars...)] += c
		sum = sum.Add(Term(c, vars...))
	}
	p, op := FromTerms(terms), mapFromTerms(terms)
	sameAs(t, "FromTerms", p, op)
	sameAs(t, "a chain of Adds", sum, op)
	return p, op
}

// sameAs fails unless got is canonical — terms strictly ascending, none
// zero, capacity capped, the zero polynomial the nil slice — and holds
// exactly want's terms.
func sameAs(t *testing.T, what string, got Poly, want mapPoly) {
	t.Helper()
	if got.terms != nil && len(got.terms) == 0 {
		t.Fatalf("%s: the zero polynomial is a non-nil empty slice", what)
	}
	if cap(got.terms) != len(got.terms) {
		t.Fatalf("%s: %d terms in a slice of capacity %d", what, len(got.terms), cap(got.terms))
	}
	for i, tm := range got.terms {
		if tm.Coef == 0 {
			t.Fatalf("%s: zero coefficient for %q in %v", what, tm.Mono, got.terms)
		}
		if i > 0 && got.terms[i-1].Mono >= tm.Mono {
			t.Fatalf("%s: terms not strictly ascending: %v", what, got.terms)
		}
	}
	if len(got.terms) != len(want.terms) {
		t.Fatalf("%s = %v, oracle says %v", what, got, want)
	}
	for _, tm := range got.terms {
		if want.terms[tm.Mono] != tm.Coef {
			t.Fatalf("%s = %v, oracle says %v", what, got, want)
		}
	}
	if !reflect.DeepEqual(got, FromTerms(want.terms)) {
		t.Fatalf("%s: %#v is not DeepEqual to the same terms built afresh", what, got)
	}
}

// FuzzPolyOracle checks every Poly operation against mapPoly, the map
// representation it replaced: equal results, canonical slices, and
// operands left as they were.
func FuzzPolyOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 2, 0, 0, 2, 2, 1, 1, 4, 2, 5, 0, 7, 2, 2, 2, 3, 1, 0, 6, 5, 9, 1, 2, 3})
	f.Add([]byte{2, 1, 0, 0, 1, 0, 7, 1, 1, 0, 6, 0, 0, 1, 1, 1, 1})    // sums that wrap to zero
	f.Add([]byte{6, 3, 0, 0, 0, 1, 3, 4, 4, 4, 6, 2, 1, 3, 8, 1, 3, 7}) // powers, constant terms
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &polyGen{data: data}
		p, op := g.poly(t)
		q, oq := g.poly(t)
		ps, qs := p.String(), q.String()

		sameAs(t, "p+q", p.Add(q), op.Add(oq))
		sameAs(t, "q+p", q.Add(p), oq.Add(op))
		k := pick(g, fuzzCoefs)
		sameAs(t, "k·p", p.Scale(k), op.Scale(k))
		sameAs(t, "p·q", p.Mul(q), op.Mul(oq))
		sameAs(t, "UpperEnvelope", UpperEnvelope(p, q), mapUpperEnvelope(op, oq))

		ranges, binding, fbinding := map[string]Range{}, map[string]uint64{}, map[string]float64{}
		for _, v := range fuzzNames {
			if lo := uint64(g.next()); lo%5 != 0 {
				ranges[v] = Range{lo, lo + uint64(g.next())}
			}
			x := g.next()
			binding[v], fbinding[v] = uint64(x)<<(x%40), float64(x)/4
		}
		if got, want := CompareAssuming(p, q, ranges), mapCompareAssuming(op, oq, ranges); got != want {
			t.Fatalf("CompareAssuming(%v, %v) = %v, oracle says %v", p, q, got, want)
		}
		sameAs(t, "MaxAssuming", MaxAssuming(p, q, ranges), mapMaxAssuming(op, oq, ranges))
		if got, want := p.Eval(binding), op.Eval(binding); got != want {
			t.Fatalf("Eval(%v) = %d, oracle says %d", p, got, want)
		}
		// The terms are summed in another order, so the last bits may
		// differ; every term is non-negative, so the sum is well
		// conditioned.
		if got, want := p.EvalFloat(fbinding), op.EvalFloat(fbinding); math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Fatalf("EvalFloat(%v) = %g, oracle says %g", p, got, want)
		}

		v := pick(g, fuzzNames)
		sameAs(t, "∂p/∂"+v, p.Derivative(v), op.Derivative(v))
		renames := []func(string) string{
			func(s string) string { return "b." + s },
			func(string) string { return "a" }, // merges every term of a degree
			func(s string) string { // swaps a and c, so terms must re-sort
				if r, ok := map[string]string{"a": "c", "c": "a"}[s]; ok {
					return r
				}
				return s
			},
		}
		fn := pick(g, renames)
		sameAs(t, "RenameVars", p.RenameVars(fn), op.RenameVars(fn))

		if ps != op.String() {
			t.Fatalf("String = %q, oracle says %q", ps, op.String())
		}
		back, err := Parse(ps)
		if err != nil {
			t.Fatalf("Parse(%q): %v", ps, err)
		}
		oback, err := mapParse(ps)
		if err != nil {
			t.Fatalf("oracle Parse(%q): %v", ps, err)
		}
		sameAs(t, "Parse(String)", back, oback)
		sameAs(t, "Parse(String)", back, op)

		for _, m := range append(op.Monos(), ConstMono, NewMono("zz")) {
			if got, want := p.Coef(m), op.Coef(m); got != want {
				t.Fatalf("Coef(%q) of %v = %d, oracle says %d", m, p, got, want)
			}
		}
		var all []MonoCoef
		for m, c := range p.All() {
			all = append(all, MonoCoef{m, c})
		}
		if !slices.Equal(all, p.terms) {
			t.Fatalf("All yields %v, terms are %v", all, p.terms)
		}
		for range p.All() {
			break // All must stop when the loop does
		}
		switch {
		case p.ConstTerm() != op.ConstTerm():
			t.Fatalf("ConstTerm of %v = %d, oracle says %d", p, p.ConstTerm(), op.ConstTerm())
		case !reflect.DeepEqual(p.Vars(), op.Vars()):
			t.Fatalf("Vars of %v = %v, oracle says %v", p, p.Vars(), op.Vars())
		case !reflect.DeepEqual(p.Monos(), op.Monos()):
			t.Fatalf("Monos of %v = %v, oracle says %v", p, p.Monos(), op.Monos())
		case p.Degree() != op.Degree():
			t.Fatalf("Degree of %v = %d, oracle says %d", p, p.Degree(), op.Degree())
		case p.IsMultilinear() != op.IsMultilinear():
			t.Fatalf("IsMultilinear of %v = %t, oracle says %t", p, p.IsMultilinear(), op.IsMultilinear())
		}

		if p.String() != ps || q.String() != qs {
			t.Fatalf("an operation changed its operands: %q → %q, %q → %q", ps, p, qs, q)
		}
	})
}

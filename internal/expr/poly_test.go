package expr

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestMonoCanonical(t *testing.T) {
	if NewMono("t", "e") != NewMono("e", "t") {
		t.Error("monomials must be order independent")
	}
	if NewMono() != ConstMono {
		t.Error("empty monomial must be the constant")
	}
	if got := NewMono("e", "e"); got != Mono("e^2") {
		t.Errorf("e*e = %q, want e^2", got)
	}
	if got := NewMono("c", "e", "e"); got != Mono("c*e^2") {
		t.Errorf("c*e*e = %q, want c*e^2", got)
	}
}

func TestMonoPowersRoundTrip(t *testing.T) {
	m := NewMono("a", "b", "b", "c", "c", "c")
	pow := m.Powers()
	if pow["a"] != 1 || pow["b"] != 2 || pow["c"] != 3 {
		t.Errorf("Powers = %v", pow)
	}
	if monoFromPowers(pow) != m {
		t.Error("powers round trip failed")
	}
	if m.Degree() != 6 {
		t.Errorf("Degree = %d, want 6", m.Degree())
	}
}

func TestPolyBasics(t *testing.T) {
	p := Term(4, "l").Add(Const(5)) // the paper's lpmGet-derived 4·l+5
	if got := p.String(); got != "4·l + 5" {
		t.Errorf("String = %q, want 4·l + 5", got)
	}
	if got := p.Eval(map[string]uint64{"l": 24}); got != 101 {
		t.Errorf("Eval(l=24) = %d, want 101", got)
	}
	if got := p.Eval(map[string]uint64{"l": 32}); got != 133 {
		t.Errorf("Eval(l=32) = %d, want 133", got)
	}
	if p.Degree() != 1 || !p.IsMultilinear() {
		t.Error("4·l+5 should be degree-1 multilinear")
	}
}

func TestPolyBridgeRendering(t *testing.T) {
	// Table 4, known-source-MAC row.
	p := Term(245, "e").
		Add(Term(144, "c")).
		Add(Term(36, "t")).
		Add(Term(82, "e", "c")).
		Add(Term(19, "e", "t")).
		Add(Const(882))
	want := "144·c + 245·e + 36·t + 82·c·e + 19·e·t + 882"
	if got := p.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	// Spot check against the paper's arithmetic: e=0,c=0,t=0 → 882.
	if got := p.Eval(map[string]uint64{"e": 0, "c": 0, "t": 0}); got != 882 {
		t.Errorf("Eval(0) = %d", got)
	}
}

func TestPolyZero(t *testing.T) {
	z := Zero()
	if !z.IsZero() || z.String() != "0" {
		t.Error("zero polynomial misbehaves")
	}
	if got := Const(0); !got.IsZero() {
		t.Error("Const(0) must be zero")
	}
	if got := Term(0, "x"); !got.IsZero() {
		t.Error("Term(0) must be zero")
	}
	if p := Var("x").Scale(0); !p.IsZero() {
		t.Error("Scale(0) must be zero")
	}
	if !z.Add(z).IsZero() || !z.Mul(Var("x")).IsZero() {
		t.Error("zero arithmetic")
	}
}

// Add drops a coefficient whose sum wraps to zero, and a zero operand
// returns the other unchanged.
func TestPolyAdd(t *testing.T) {
	p := Term(^uint64(0), "x").Add(Const(3))
	if got := p.Add(Term(1, "x")); got.String() != "3" {
		t.Errorf("wrapping sum: got %s, want 3", got)
	}
	if got := Term(^uint64(0), "x").Add(Var("x")); !got.IsZero() {
		t.Errorf("sum wrapping to zero everywhere: got %s, want 0", got)
	}
	if got := p.Add(Zero()); got.String() != p.String() {
		t.Errorf("p + 0 = %s, want %s", got, p)
	}
	if got := Zero().Add(p); got.String() != p.String() {
		t.Errorf("0 + p = %s, want %s", got, p)
	}
	if got := Var("x").Add(Term(2, "x", "y")).Add(Const(1)); got.String() != "x + 2·x·y + 1" {
		t.Errorf("got %s", got)
	}
}

func TestPolyMul(t *testing.T) {
	// (e + 2)·(c + 3) = e·c + 3e + 2c + 6
	p := Var("e").Add(Const(2))
	q := Var("c").Add(Const(3))
	got := p.Mul(q)
	if got.Coef(NewMono("e", "c")) != 1 || got.Coef(NewMono("e")) != 3 ||
		got.Coef(NewMono("c")) != 2 || got.ConstTerm() != 6 {
		t.Errorf("Mul = %v", got)
	}
	if mv := Var("e").MulVar("e"); mv.Coef(NewMono("e", "e")) != 1 {
		t.Errorf("MulVar square = %v", mv)
	}
}

func TestPolyVars(t *testing.T) {
	p := Term(1, "t", "o").Add(Term(2, "e"))
	got := p.Vars()
	if len(got) != 3 || got[0] != "e" || got[1] != "o" || got[2] != "t" {
		t.Errorf("Vars = %v", got)
	}
}

func TestEvalPanicsOnUnbound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Eval with unbound PCV should panic")
		}
	}()
	Var("l").Eval(map[string]uint64{})
}

func TestUpperEnvelope(t *testing.T) {
	p := Term(4, "l").Add(Const(5))
	q := Term(3, "l").Add(Const(9))
	env := UpperEnvelope(p, q)
	if env.Coef(NewMono("l")) != 4 || env.ConstTerm() != 9 {
		t.Errorf("UpperEnvelope = %v", env)
	}
}

func TestCompareAssuming(t *testing.T) {
	p := Term(4, "l").Add(Const(5))
	q := Term(4, "l").Add(Const(7))
	r := map[string]Range{"l": {0, 32}}
	if got := CompareAssuming(p, q, r); got != AlwaysLeq {
		t.Errorf("p vs q = %v, want AlwaysLeq", got)
	}
	if got := CompareAssuming(q, p, r); got != AlwaysGeq {
		t.Errorf("q vs p = %v, want AlwaysGeq", got)
	}
	if got := CompareAssuming(p, p, r); got != AlwaysEq {
		t.Errorf("p vs p = %v, want AlwaysEq", got)
	}
	// Crossing lines: 10·l vs 100 over l∈[0,32] cross at l=10.
	a, b := Term(10, "l"), Const(100)
	if got := CompareAssuming(a, b, r); got != Incomparable {
		t.Errorf("crossing = %v, want Incomparable", got)
	}
	// But over l∈[0,10] 10·l ≤ 100 everywhere.
	if got := CompareAssuming(a, b, map[string]Range{"l": {0, 10}}); got != AlwaysLeq {
		t.Errorf("bounded crossing = %v, want AlwaysLeq", got)
	}
}

func TestMaxAssuming(t *testing.T) {
	p := Term(4, "l").Add(Const(5))
	q := Term(4, "l").Add(Const(7))
	r := map[string]Range{"l": {0, 32}}
	if got := MaxAssuming(p, q, r); got.String() != q.String() {
		t.Errorf("MaxAssuming = %v, want q", got)
	}
	// Incomparable pair falls back to envelope.
	a, b := Term(10, "l"), Const(100)
	env := MaxAssuming(a, b, r)
	if env.Coef(NewMono("l")) != 10 || env.ConstTerm() != 100 {
		t.Errorf("envelope fallback = %v", env)
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"4·l + 5",
		"0",
		"882",
		"144·c + 245·e + 36·t + 82·c·e + 19·e·t + 882",
		"l",
		"2·l^2 + 3",
	}
	for _, s := range cases {
		p, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if got := p.String(); got != s {
			t.Errorf("round trip %q → %q", s, got)
		}
	}
	// ASCII '*' accepted too.
	p, err := Parse("82*c*e + 1")
	if err != nil || p.Coef(NewMono("c", "e")) != 82 {
		t.Errorf("ASCII parse failed: %v %v", p, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "+", "4·", "l·4", "x^0", "x^-1", "a + + b"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

// randPoly builds a small random polynomial from a seed.
func randPoly(r *rand.Rand) Poly {
	names := []string{"c", "e", "t", "o", "l"}
	p := Const(uint64(r.Intn(1000)))
	for i := 0; i < r.Intn(5); i++ {
		var vars []string
		for j := 0; j < 1+r.Intn(2); j++ {
			vars = append(vars, names[r.Intn(len(names))])
		}
		p = p.Add(Term(uint64(r.Intn(500)), vars...))
	}
	return p
}

func randBinding(r *rand.Rand) map[string]uint64 {
	b := make(map[string]uint64)
	for _, n := range []string{"c", "e", "t", "o", "l"} {
		b[n] = uint64(r.Intn(64))
	}
	return b
}

// Property: evaluation is a homomorphism for Add, Scale and Mul.
func TestEvalHomomorphism(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := randPoly(r), randPoly(r)
		b := randBinding(r)
		k := uint64(r.Intn(16))
		if p.Add(q).Eval(b) != p.Eval(b)+q.Eval(b) {
			return false
		}
		if p.Scale(k).Eval(b) != k*p.Eval(b) {
			return false
		}
		return p.Mul(q).Eval(b) == p.Eval(b)*q.Eval(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String→Parse round trips for random polynomials.
func TestStringParseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPoly(r)
		q, err := Parse(p.String())
		if err != nil {
			return false
		}
		b := randBinding(r)
		return p.Eval(b) == q.Eval(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: UpperEnvelope dominates both arguments pointwise.
func TestUpperEnvelopeDominates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := randPoly(r), randPoly(r)
		env := UpperEnvelope(p, q)
		for i := 0; i < 10; i++ {
			b := randBinding(r)
			if env.Eval(b) < p.Eval(b) || env.Eval(b) < q.Eval(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MaxAssuming dominates both arguments on samples inside the box.
func TestMaxAssumingDominates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := randPoly(r), randPoly(r)
		ranges := map[string]Range{}
		for _, n := range []string{"c", "e", "t", "o", "l"} {
			ranges[n] = Range{0, 63}
		}
		m := MaxAssuming(p, q, ranges)
		for i := 0; i < 10; i++ {
			b := randBinding(r)
			if m.Eval(b) < p.Eval(b) || m.Eval(b) < q.Eval(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalFloat(t *testing.T) {
	p := Term(4, "l").Add(Const(5))
	got := p.EvalFloat(map[string]float64{"l": 2.5})
	if got != 15 {
		t.Errorf("EvalFloat = %v, want 15", got)
	}
}

func TestFromTermsDropsZeros(t *testing.T) {
	p := FromTerms(map[Mono]uint64{NewMono("x"): 0, ConstMono: 3})
	if len(p.Monos()) != 1 || p.ConstTerm() != 3 {
		t.Errorf("FromTerms = %v", p)
	}
	if q := FromTerms(map[Mono]uint64{NewMono("x"): 0}); !q.IsZero() {
		t.Error("all-zero FromTerms must be zero")
	}
	if q := FromSorted([]MonoCoef{}); !reflect.DeepEqual(q, Zero()) {
		t.Errorf("empty FromSorted = %#v, want the zero value", q)
	}
	if q := FromSorted([]MonoCoef{{ConstMono, 3}}); !reflect.DeepEqual(q, p) {
		t.Errorf("FromSorted = %v, want what FromTerms builds, %v", q, p)
	}
}

func TestDerivative(t *testing.T) {
	// d/dt (245e + 36t + 19et + 882) = 36 + 19e
	p := Term(245, "e").Add(Term(36, "t")).Add(Term(19, "e", "t")).Add(Const(882))
	d := p.Derivative("t")
	if d.ConstTerm() != 36 || d.Coef(NewMono("e")) != 19 || len(d.Monos()) != 2 {
		t.Errorf("derivative = %v", d)
	}
	// d/dl (4l + 5) = 4; d/dx = 0.
	q := Term(4, "l").Add(Const(5))
	if got := q.Derivative("l"); got.ConstTerm() != 4 || len(got.Monos()) != 1 {
		t.Errorf("d/dl = %v", got)
	}
	if got := q.Derivative("x"); !got.IsZero() {
		t.Errorf("d/dx = %v", got)
	}
	// Powers: d/de (3e²) = 6e.
	sq := Term(3, "e", "e")
	if got := sq.Derivative("e"); got.Coef(NewMono("e")) != 6 {
		t.Errorf("d/de 3e² = %v", got)
	}
}

// Property: the derivative satisfies the discrete bound p(v+1) - p(v) ≥
// derivative at v for non-negative coefficients (convexity upward).
func TestDerivativeDiscreteProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPoly(r)
		b := randBinding(r)
		b2 := map[string]uint64{}
		for k, v := range b {
			b2[k] = v
		}
		b2["t"] = b["t"] + 1
		diff := p.Eval(b2) - p.Eval(b)
		return diff >= p.Derivative("t").Eval(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// parseMonoReference is ParseMono as it was before it stopped
// allocating (a power map, a split slice and a re-rendered string per
// call — three quarters of the contract codec's allocations): the
// canonical form is whatever monoFromPowers renders back unchanged.
func parseMonoReference(s string) (Mono, bool) {
	if s == "" {
		return ConstMono, true
	}
	pow := make(map[string]int)
	prev := ""
	for _, f := range strings.Split(s, "*") {
		name, k := f, 1
		if i := strings.IndexByte(f, '^'); i >= 0 {
			name = f[:i]
			var err error
			k, err = strconv.Atoi(f[i+1:])
			if err != nil || k < 2 {
				return ConstMono, false
			}
		}
		if name == "" || strings.ContainsAny(name, "*^") {
			return ConstMono, false
		}
		if prev != "" && name <= prev {
			return ConstMono, false
		}
		prev = name
		pow[name] = k
	}
	if m := monoFromPowers(pow); string(m) == s {
		return m, true
	}
	return ConstMono, false
}

func TestParseMonoMatchesReference(t *testing.T) {
	cases := []string{
		"", "e", "c*e", "c*e^2", "e^2", "b.c*b.e", "a*b*c^12", "e^100",
		"e*c", "e*e", "e^1", "e^0", "e^02", "e^+2", "e^-2", "e^2^3", "e^", "^2", "*", "e*", "*e", "e**c", "e^x", "e^2*", "a^3*a", " e", "e^99999999999999999999",
	}
	// Every string over a small alphabet up to length 6 covers the
	// factor/power grammar exhaustively.
	const alphabet = "ab*^012+"
	var grow func(prefix string, n int)
	grow = func(prefix string, n int) {
		cases = append(cases, prefix)
		if n == 0 {
			return
		}
		for _, c := range alphabet {
			grow(prefix+string(c), n-1)
		}
	}
	grow("", 6)
	accepted := 0
	for _, s := range cases {
		want, ok := parseMonoReference(s)
		got, err := ParseMono(s)
		if (err == nil) != ok || got != want {
			t.Fatalf("ParseMono(%q) = %q, %v; reference says %q, %t", s, got, err, want, ok)
		}
		if ok {
			accepted++
		}
	}
	if accepted < 100 {
		t.Fatalf("only %d of %d cases are canonical monomials", accepted, len(cases))
	}
	if n := testing.AllocsPerRun(100, func() { ParseMono("b.b.c*b.b.e^2") }); n != 0 {
		t.Fatalf("ParseMono allocates %v times per call", n)
	}
}

// A PCV name that is empty or contains '*' or '^' would alias the
// constant, a product or a power in monomial syntax, so NewMono — and
// with it Var, Term and RenameVars — panics, naming it.
func TestMonoRejectsSyntaxNames(t *testing.T) {
	for _, tc := range []struct {
		name, bad string
		build     func() Poly
	}{
		{"empty name is not the constant", "", func() Poly { return Var("") }},
		{"a*b is not the product a·b", "a*b", func() Poly { return Var("a*b").Add(Term(1, "a", "b")) }},
		{"renaming to x^2 does not square", "x^2", func() Poly {
			return Var("a").RenameVars(func(string) string { return "x^2" })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var p Poly
			r := panicOf(func() { p = tc.build() })
			if msg, _ := r.(string); !strings.Contains(msg, strconv.Quote(tc.bad)) {
				t.Fatalf("built %v (degree %d), panic %v; want a panic naming %q", p, p.Degree(), r, tc.bad)
			}
		})
	}
}

// panicOf runs f and returns what it panicked with, nil if it returned.
func panicOf(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

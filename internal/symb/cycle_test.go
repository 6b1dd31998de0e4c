package symb

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"
)

// orderCycleChild names the environment variable that makes
// TestOrderCycleHonoursDeadline run its cases in this process: the
// parent test re-runs the test binary so that a propagation that never
// finishes (and grows its worklist by hundreds of MB a second) can be
// killed instead of outliving the test.
const orderCycleChild = "SYMB_ORDER_CYCLE_CHILD"

// An order cycle through a strict edge is unsatisfiable, but interval
// propagation narrows it one value per round: over unbounded domains
// that is 2^64 rounds, and the solver used to spin there past any
// deadline. Each call below must return within a second under a 50-ms
// deadline, through a fresh solve and through a session's Assert, and a
// cycle must not be claimed where there is none.
func TestOrderCycleHonoursDeadline(t *testing.T) {
	if os.Getenv(orderCycleChild) == "1" {
		orderCycleCases(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestOrderCycleHonoursDeadline$", "-test.v")
	cmd.Env = append(os.Environ(), orderCycleChild+"=1")
	done := make(chan error, 1)
	var out []byte
	go func() {
		var err error
		out, err = cmd.CombinedOutput()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("order-cycle cases failed: %v\n%s", err, out)
		}
	case <-time.After(2 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("order-cycle cases still running after 2 s: propagation ignores the deadline\n%s", out)
	}
}

func orderCycleCases(t *testing.T) {
	x, y, z := S("x"), S("y"), S("z")
	cases := []struct {
		name  string
		cs    []Expr
		dom   map[string]Domain
		unsat bool
	}{
		{"x<y ∧ y<=x, nil domains", []Expr{B(Ult, x, y), B(Ule, y, x)}, nil, true},
		{"x<y ∧ y<=x over [0, 2^22]", []Expr{B(Ult, x, y), B(Ule, y, x)},
			map[string]Domain{"x": {Lo: 0, Hi: 1 << 22}, "y": {Lo: 0, Hi: 1 << 22}}, true},
		{"x<=y ∧ z>y ∧ x>=z, nil domains", []Expr{B(Ule, x, y), B(Ugt, z, y), B(Uge, x, z)}, nil, true},
		{"x<=y ∧ y<=x is satisfiable", []Expr{B(Ule, x, y), B(Ule, y, x)}, nil, false},
		{"a 5000-link non-strict cycle with a strict edge out is satisfiable", ring(5000),
			map[string]Domain{"x0": {Lo: 5, Hi: ^uint64(0)}}, false},
	}
	for _, tc := range cases {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		_, res := (&Solver{}).SolveContext(ctx, tc.cs, tc.dom)
		fresh := time.Since(start)

		// The join fork's order: constraints first, then the domains.
		start = time.Now()
		s := NewIncremental().NewSession()
		for _, c := range tc.cs {
			s.Assert(c)
		}
		s.SetDomains(sortedDomains(tc.dom))
		feasible := s.FeasibleContext(ctx, &Solver{})
		session := time.Since(start)
		cancel()

		t.Logf("%s: fresh solve %v in %v, session feasible=%v in %v", tc.name, res, fresh, feasible, session)
		if fresh > time.Second || session > time.Second {
			t.Errorf("%s: fresh solve took %v, session %v; want each within 1 s", tc.name, fresh, session)
		}
		if tc.unsat && (res != Unsat || feasible) {
			t.Errorf("%s: fresh solve %v, session feasible=%v; want Unsat", tc.name, res, feasible)
		}
		if !tc.unsat && (res == Unsat || !feasible) {
			t.Errorf("%s: fresh solve %v, session feasible=%v; refuted a satisfiable set", tc.name, res, feasible)
		}
	}
}

// ring returns a non-strict cycle x0 ≤ x1 ≤ … ≤ xn ≤ x0 with one strict
// edge out of it, xn < w, ordered so that asserting it over full domains
// narrows almost nothing; bounding x0 from below afterwards then
// propagates through all n links in one pass, past cycleCheckFrom steps,
// and the cycle check must find the non-strict cycle harmless.
func ring(n int) []Expr {
	x := func(i int) Expr { return S(fmt.Sprintf("x%d", i)) }
	cs := []Expr{B(Ult, x(n), S("w"))}
	for i := n - 1; i >= 0; i-- {
		cs = append(cs, B(Ule, x(i), x(i+1)))
	}
	return append(cs, B(Uge, x(0), x(n)))
}

package dslib

import (
	"fmt"

	"gobolt/internal/expr"
	"gobolt/internal/nfir"
	"gobolt/internal/symb"
)

// RuleSet is the firewall's 5-tuple rule table (§5.2's firewall NF): a
// linear scan over mask/value rules with an accept/deny verdict. The
// expert contract coalesces the scan to its full length, so both
// outcomes cost the same constant — matching the shape of the paper's
// Table 5a, where the firewall's cost per class is a constant.
//
// IR method: match(src, dst, sport, dport, proto) -> action (1 accept,
// 0 deny).
type RuleSet struct {
	rules []Rule
	addr  uint64
	deflt uint64
}

// Rule matches masked fields; Action 1 accepts, 0 denies.
type Rule struct {
	SrcMask, SrcVal uint64
	DstMask, DstVal uint64
	ProtoVal        uint64 // 0 = any
	Action          uint64
}

var (
	ruleStep     = StepCost{ALU: 22, Branch: 5, Load: 6, Lines: 1} // per rule
	ruleFixed    = StepCost{ALU: 20, Branch: 4, Load: 4, Lines: 2} // prologue + verdict
	ruleStepSave = StepCost{ALU: 6, Load: 2}                       // early field mismatch
)

// NewRuleSet builds a rule table; the default action applies when no
// rule matches.
func NewRuleSet(env *nfir.Env, rules []Rule, defaultAction uint64) *RuleSet {
	return &RuleSet{
		rules: rules,
		addr:  env.Heap.Alloc(uint64(len(rules)+1) * 64),
		deflt: defaultAction,
	}
}

// Invoke implements nfir.ConcreteDS.
func (r *RuleSet) Invoke(method string, args []uint64, env *nfir.Env) ([]uint64, error) {
	if method != "match" || len(args) != 5 {
		return nil, fmt.Errorf("ruleset: unknown method %q/%d", method, len(args))
	}
	src, dst, proto := args[0], args[1], args[4]
	charge(env, ruleFixed, []uint64{r.addr}, false)
	action := r.deflt
	for i, rule := range r.rules {
		ra := r.addr + uint64(i+1)*64
		if src&rule.SrcMask != rule.SrcVal {
			charge(env, subStep(ruleStep, ruleStepSave), []uint64{ra}, false)
			continue
		}
		charge(env, ruleStep, []uint64{ra}, false)
		if dst&rule.DstMask != rule.DstVal {
			continue
		}
		if rule.ProtoVal != 0 && rule.ProtoVal != proto {
			continue
		}
		action = rule.Action
		break
	}
	return env.Results(action), nil
}

// Model returns the accept/deny model with the coalesced full-scan
// contract.
func (r *RuleSet) Model() nfir.Model { return rulesModel{r: r} }

type rulesModel struct{ r *RuleSet }

func (m rulesModel) Outcomes(method string, args []symb.Expr, fresh nfir.FreshFn) []nfir.Outcome {
	if method != "match" {
		return nil
	}
	cost := buildCost(
		costTerm{ruleFixed, nil},
		costTerm{scaleStep(ruleStep, uint64(len(m.r.rules))), nil},
	)
	return []nfir.Outcome{
		{Label: "accept", Results: []symb.Expr{symb.C(1)}, Cost: cost},
		{Label: "deny", Results: []symb.Expr{symb.C(0)}, Cost: cost},
	}
}

// OptionProcessor implements the §5.2 static router's IP-option
// handling: it walks the options area of the current packet and fills
// timestamp-option slots (RFC 781), the operation whose cost the paper
// summarises as 79·n + 646 (Table 5b). The per-option coefficient here
// is exactly 79; n is the PCV counting processed 4-byte option slots.
//
// IR method: process(ihl) -> nOptions. The method reads and writes the
// packet buffer through the environment.
type OptionProcessor struct{}

var (
	optPerSlot  = StepCost{ALU: 60, Branch: 7, Load: 8, Store: 4, Lines: 1} // 79·n
	optFixed    = StepCost{ALU: 24, Branch: 6, Load: 5, Lines: 2}           // options-present prologue
	optSlotSave = StepCost{ALU: 10, Store: 4}                               // non-timestamp slot: no write-back
)

// MaxIPOptions bounds the option slots ((15-5)*4 bytes / 4 per slot).
const MaxIPOptions = 10

// ipHeaderOff is the IPv4 header offset within the frame.
const ipHeaderOff = 14

// Invoke implements nfir.ConcreteDS.
func (OptionProcessor) Invoke(method string, args []uint64, env *nfir.Env) ([]uint64, error) {
	if method != "process" || len(args) != 1 {
		return nil, fmt.Errorf("optproc: unknown method %q/%d", method, len(args))
	}
	ihl := args[0]
	if ihl <= 5 {
		// No options: free at this level (the caller's branch covers it).
		env.ObservePCV(PCVOptions, 0)
		return env.Results(0), nil
	}
	if ihl > 15 {
		ihl = 15
	}
	charge(env, optFixed, []uint64{env.PktAddr + ipHeaderOff}, false)
	optBytes := (ihl - 5) * 4
	var n uint64
	for off := uint64(0); off+4 <= optBytes; off += 4 {
		p := ipHeaderOff + 20 + off
		slotAddr := env.PktAddr + p
		n++
		if env.Pkt[p] == 68 { // timestamp option: fill a slot
			charge(env, optPerSlot, []uint64{slotAddr}, false)
			env.StorePkt(p+2, 1, env.Time) // a stand-in timestamp byte
		} else {
			charge(env, subStep(optPerSlot, optSlotSave), []uint64{slotAddr}, false)
		}
	}
	env.ObservePCV(PCVOptions, n)
	return env.Results(n), nil
}

// Model returns the two-outcome model: "none" (ihl = 5) and "options"
// (ihl > 5, cost 79·n + fixed over the PCV n).
func (OptionProcessor) Model() nfir.Model { return optModel{} }

type optModel struct{}

func (optModel) Outcomes(method string, args []symb.Expr, fresh nfir.FreshFn) []nfir.Outcome {
	if method != "process" {
		return nil
	}
	var ihl symb.Expr = symb.C(5)
	if len(args) > 0 {
		ihl = args[0]
	}
	n := fresh("nopts")
	return []nfir.Outcome{
		{
			Label:       "none",
			Results:     []symb.Expr{symb.C(0)},
			Constraints: []symb.Expr{symb.B(symb.Ule, ihl, symb.C(5))},
			Cost:        buildCost(),
		},
		{
			Label:       "options",
			Results:     []symb.Expr{n},
			Constraints: []symb.Expr{symb.B(symb.Ugt, ihl, symb.C(5))},
			Domains:     map[string]symb.Domain{n.Name: {Lo: 1, Hi: MaxIPOptions}},
			Cost: buildCost(
				costTerm{optFixed, nil},
				costTerm{optPerSlot, []string{PCVOptions}},
			),
			PCVs: []nfir.PCV{{Name: PCVOptions, Range: expr.Range{Lo: 1, Hi: MaxIPOptions}}},
		},
	}
}

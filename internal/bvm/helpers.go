package bvm

import (
	"fmt"

	"gobolt/internal/dslib"
	"gobolt/internal/nfir"
)

// BuildOptions tune instantiation without touching the program text,
// mirroring nf.BuildParams so .bvm NFs parameterize exactly like
// builtins (and their contract cache keys line up across tools).
type BuildOptions struct {
	// Capacity overrides every declared flow table's capacity (0 keeps
	// the declaration's).
	Capacity int
	// TimeoutNS overrides every declared flow table's expiry window.
	TimeoutNS uint64
}

// BuildDS instantiates the program's declared data structures against
// env — linking concrete implementations into env — and returns the
// symbolic models contract generation needs. Flow tables use the
// VigNAT cost preset (the library's canonical hash-table contract).
func (p *Program) BuildDS(env *nfir.Env, opts BuildOptions) (map[string]nfir.Model, error) {
	models := make(map[string]nfir.Model, len(p.DS))
	for i := range p.DS {
		d := &p.DS[i]
		switch d.Kind {
		case KindFlowTable:
			capacity := d.Capacity
			if opts.Capacity > 0 {
				capacity = opts.Capacity
			}
			timeout := d.TimeoutNS
			if opts.TimeoutNS > 0 {
				timeout = opts.TimeoutNS
			}
			t := dslib.NewFlowTable(env, dslib.FlowTableConfig{
				Name: d.Name, Capacity: capacity, KeyWords: d.Keys,
				TimeoutNS: timeout, GranularityNS: d.GranularityNS,
				Costs: dslib.VigNATCosts(),
			})
			env.Link(d.Name, t)
			models[d.Name] = t.Model()
		case KindLPM:
			if d.DefaultPort >= p.Ports {
				return nil, fmt.Errorf("bvm: %s: lpm %q default port %d out of range (ports=%d)", p.Name, d.Name, d.DefaultPort, p.Ports)
			}
			dir := dslib.NewDir248(env, uint16(d.DefaultPort), d.MaxGroups)
			for _, r := range d.Routes {
				if uint64(r.Port) >= p.Ports {
					return nil, fmt.Errorf("bvm: %s: lpm %q route port %d out of range (ports=%d)", p.Name, d.Name, r.Port, p.Ports)
				}
				if err := dir.AddRoute(r.Prefix, r.Length, r.Port); err != nil {
					return nil, fmt.Errorf("bvm: %s: lpm %q: %w", p.Name, d.Name, err)
				}
			}
			env.Link(d.Name, dir)
			models[d.Name] = dir.Model()
		case KindRules:
			rules := make([]dslib.Rule, len(d.Rules))
			for j, r := range d.Rules {
				rules[j] = dslib.Rule{
					SrcMask: r.SrcMask, SrcVal: r.SrcVal,
					DstMask: r.DstMask, DstVal: r.DstVal,
					ProtoVal: r.ProtoVal, Action: r.Action,
				}
			}
			rs := dslib.NewRuleSet(env, rules, d.DefaultAction)
			env.Link(d.Name, rs)
			models[d.Name] = rs.Model()
		default:
			return nil, fmt.Errorf("bvm: %s: data structure %q has unknown kind %d", p.Name, d.Name, d.Kind)
		}
	}
	return models, nil
}

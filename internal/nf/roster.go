package nf

import (
	"fmt"
	"strings"

	"gobolt/internal/dslib"
)

// hourNS is the canonical expiry window the evaluation NFs run with.
const hourNS = uint64(3_600_000_000_000)

// BuildParams parameterize a roster build. The zero value reproduces the
// canonical evaluation configuration of each NF, so every tool that
// accepts an NF name builds bit-identical instances — which is what
// makes their contract cache keys line up across bolt, boltbench,
// boltmon, distiller, and the chain tests.
type BuildParams struct {
	// Capacity sizes flow/MAC tables for the stateful NFs (0 = 4096).
	Capacity int
	// TimeoutNS is the flow/MAC expiry window (0 = one hour). The
	// distiller shortens it to observe expiry PCVs on replayed traces.
	TimeoutNS uint64
	// Routes replaces an LPM entry's default route set (nil keeps the
	// entry's default; an empty non-nil slice means no routes).
	Routes []Route
}

// Route is one LPM route for BuildParams.Routes.
type Route struct {
	Prefix uint32
	Length int
	Port   uint16
}

func (p BuildParams) capacity() int {
	if p.Capacity == 0 {
		return 4096
	}
	return p.Capacity
}

func (p BuildParams) timeout() uint64 {
	if p.TimeoutNS == 0 {
		return hourNS
	}
	return p.TimeoutNS
}

// RosterEntry is one buildable NF in the shared roster.
type RosterEntry struct {
	Name string
	// Summary is the one-line description -nf help prints.
	Summary string
	// Provenance records which frontend defines the NF: empty for the
	// hand-written builtins, "bvm:<file>" for bytecode NFs loaded from
	// data. Contracts generated from the NF carry the same label.
	Provenance string
	Build      func(BuildParams) (*Instance, error)
}

// ProvenanceLabel renders Provenance for listings ("builtin" when empty).
func (e RosterEntry) ProvenanceLabel() string {
	if e.Provenance == "" {
		return "builtin"
	}
	return e.Provenance
}

// roster is the single source of truth for every NF name the command
// line tools accept. Chain tooling composes from it too:
// experiments.ChainStages' 8-stage roster is ingress-firewall → nat → bridge → lb →
// static-router → lpm-router → egress-firewall → edge-router.
var roster = []RosterEntry{
	{
		Name:    "nat",
		Summary: "endpoint-independent NAT with flow expiry",
		Build: func(p BuildParams) (*Instance, error) {
			return NewNAT(NATConfig{
				ExternalIP: 0xC0A80001, Capacity: p.capacity(),
				TimeoutNS: p.timeout(), GranularityNS: 1_000_000,
			}).Instance, nil
		},
	},
	{
		Name:    "bridge",
		Summary: "learning bridge with MAC expiry and rehashing",
		Build: func(p BuildParams) (*Instance, error) {
			return NewBridge(BridgeConfig{
				Ports: 4, Capacity: p.capacity(),
				TimeoutNS: p.timeout(), GranularityNS: 1_000_000, RehashThreshold: 6,
			}).Instance, nil
		},
	},
	{
		Name:    "lb",
		Summary: "Maglev-style load balancer with flow affinity",
		Build: func(p BuildParams) (*Instance, error) {
			lb, err := NewLB(LBConfig{
				Backends: 16, RingSize: 4099, BackendIPBase: 0xAC100000,
				FlowCapacity: p.capacity(), TimeoutNS: p.timeout(), GranularityNS: 1_000_000,
				HeartbeatTimeoutNS: hourNS,
			})
			if err != nil {
				return nil, err
			}
			return lb.Instance, nil
		},
	},
	{
		Name:    "lpm",
		Summary: "16-port DIR-24-8 router with the evaluation routes",
		Build: func(p BuildParams) (*Instance, error) {
			routes := p.Routes
			if routes == nil {
				routes = []Route{{0x0A000000, 8, 1}, {0xC0A80180, 25, 2}}
			}
			r := NewLPMRouter(LPMRouterConfig{Ports: 16})
			for _, rt := range routes {
				if err := r.Table.AddRoute(rt.Prefix, rt.Length, rt.Port); err != nil {
					return nil, err
				}
			}
			return r.Instance, nil
		},
	},
	{
		Name:    "lpm-router",
		Summary: "8-port DIR-24-8 router with an empty table (chain stage)",
		Build: func(p BuildParams) (*Instance, error) {
			r := NewLPMRouter(LPMRouterConfig{Ports: 8})
			for _, rt := range p.Routes {
				if err := r.Table.AddRoute(rt.Prefix, rt.Length, rt.Port); err != nil {
					return nil, err
				}
			}
			return r.Instance, nil
		},
	},
	{
		Name:    "example-lpm",
		Summary: "the §2.1 running-example Patricia router",
		Build: func(p BuildParams) (*Instance, error) {
			return NewExampleLPM(ExampleLPMConfig{Ports: 4}).Instance, nil
		},
	},
	{
		Name:    "firewall",
		Summary: "rule-scan firewall with an empty ruleset (default deny)",
		Build: func(p BuildParams) (*Instance, error) {
			return NewFirewall(FirewallConfig{}).Instance, nil
		},
	},
	{
		Name:    "ingress-firewall",
		Summary: "firewall denying loopback and accepting 10/8 (chain head)",
		Build: func(p BuildParams) (*Instance, error) {
			return NewFirewall(FirewallConfig{
				Rules: []dslib.Rule{
					{SrcMask: 0xFF000000, SrcVal: 0x7F000000, Action: 0}, // deny loopback
					{SrcMask: 0xFF000000, SrcVal: 0x0A000000, Action: 1}, // accept 10/8
				},
				DefaultAccept: false,
			}).Instance, nil
		},
	},
	{
		Name:    "egress-firewall",
		Summary: "firewall denying 192.168/16, default accept (chain tail)",
		Build: func(p BuildParams) (*Instance, error) {
			return NewFirewall(FirewallConfig{
				Rules: []dslib.Rule{
					{SrcMask: 0xFFFF0000, SrcVal: 0xC0A80000, Action: 0}, // deny 192.168/16
				},
				DefaultAccept: true,
			}).Instance, nil
		},
	},
	{
		Name:    "static-router",
		Summary: "4-port static router",
		Build: func(p BuildParams) (*Instance, error) {
			return NewStaticRouter(StaticRouterConfig{Ports: 4}).Instance, nil
		},
	},
	{
		Name:    "edge-router",
		Summary: "2-port static router (chain tail)",
		Build: func(p BuildParams) (*Instance, error) {
			return NewStaticRouter(StaticRouterConfig{Ports: 2}).Instance, nil
		},
	},
}

// Roster returns the shared NF roster in its canonical order.
func Roster() []RosterEntry {
	out := make([]RosterEntry, len(roster))
	copy(out, roster)
	return out
}

// Names returns every roster NF name, in canonical order.
func Names() []string {
	names := make([]string, len(roster))
	for i, e := range roster {
		names[i] = e.Name
	}
	return names
}

// NamesList renders the roster names for -nf flag help, so the help
// text can never go stale against the roster again.
func NamesList() string { return strings.Join(Names(), ", ") }

// Build constructs a roster NF by name.
func Build(name string, p BuildParams) (*Instance, error) {
	for _, e := range roster {
		if e.Name == name {
			return e.Build(p)
		}
	}
	return nil, fmt.Errorf("unknown NF %q (known: %s)", name, NamesList())
}

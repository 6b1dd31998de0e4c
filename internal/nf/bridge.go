package nf

import (
	"gobolt/internal/dslib"
	"gobolt/internal/nfir"
	"gobolt/internal/symb"
)

// BridgeConfig configures the MAC learning bridge (the paper's Br).
type BridgeConfig struct {
	// Ports is the number of switch ports.
	Ports uint64
	// Capacity is the MAC table size.
	Capacity int
	// TimeoutNS ages MAC entries; GranularityNS quantises their stamps.
	TimeoutNS, GranularityNS uint64
	// RehashThreshold enables the §5.2 collision-attack defence.
	RehashThreshold uint64
	// Seed makes the keyed hash deterministic for reproduction.
	Seed uint64
}

// Bridge is the built bridge NF.
type Bridge struct {
	*Instance
	// Table is the MAC learning table (exposed for state synthesis and
	// adversarial-workload generation).
	Table *dslib.FlowTable
}

// NewBridge builds the bridge. Per packet it expires stale MAC entries,
// learns the source MAC (put), and looks up the destination (peek):
// broadcast frames and unknown destinations flood, known ones forward.
func NewBridge(cfg BridgeConfig) *Bridge {
	return NewBridgeWithCosts(cfg, dslib.BridgeCosts())
}

// NewBridgeWithCosts builds the bridge with a custom MAC-table cost set;
// the coalescing ablation uses it to compare contract variants.
func NewBridgeWithCosts(cfg BridgeConfig, costs dslib.FlowTableCosts) *Bridge {
	if cfg.Ports == 0 {
		cfg.Ports = 4
	}
	in := newInstance()
	table := dslib.NewFlowTable(in.Env, dslib.FlowTableConfig{
		Name:            "mac",
		Capacity:        cfg.Capacity,
		KeyWords:        1,
		TimeoutNS:       cfg.TimeoutNS,
		GranularityNS:   cfg.GranularityNS,
		RehashThreshold: cfg.RehashThreshold,
		Seed:            cfg.Seed,
		ValueDomain:     &symb.Domain{Lo: 0, Hi: cfg.Ports - 1},
		Costs:           costs,
	})
	in.register("mac", table, table.Model())

	in.Prog = nfir.NewProgram("bridge", cfg.Ports, []nfir.Stmt{
		nfir.Invoke("mac", "expire", []nfir.Expr{nfir.Now{}}, "expired"),
		set("src", mac48(6)),
		nfir.Invoke("mac", "put", []nfir.Expr{l("src"), nfir.InPort{}, nfir.Now{}}, "learn"),
		// Broadcast destination floods (checked field-wise so the class
		// constraint stays solver-friendly).
		nfir.IfElse(
			nfir.And2(
				nfir.Eq(nfir.Field(0, 2), c(0xFFFF)),
				nfir.Eq(nfir.Field(2, 4), c(0xFFFFFFFF)),
			),
			[]nfir.Stmt{fwd(c(FloodPort))},
			[]nfir.Stmt{
				set("dst", mac48(0)),
				nfir.Invoke("mac", "peek", []nfir.Expr{l("dst")}, "port", "found"),
				nfir.IfElse(nfir.Eq(l("found"), c(1)),
					[]nfir.Stmt{fwd(l("port"))},
					[]nfir.Stmt{fwd(c(FloodPort))},
				),
			},
		),
	})
	return &Bridge{Instance: in, Table: table}
}

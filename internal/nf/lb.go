package nf

import (
	"gobolt/internal/dslib"
	"gobolt/internal/nfir"
	"gobolt/internal/symb"
)

// LB port conventions: clients arrive on port 0, backends sit behind
// port 1.
const (
	LBPortClient  = 0
	LBPortBackend = 1
	// LBHeartbeatPort is the UDP destination port of backend heartbeats.
	LBHeartbeatPort = 9999
)

// LBConfig configures the Maglev-like load balancer.
type LBConfig struct {
	// Backends is the backend count; RingSize the Maglev table size
	// (prime).
	Backends, RingSize int
	// BackendIPBase: backend i's virtual IP is Base+i, written into
	// forwarded packets.
	BackendIPBase uint32
	// FlowCapacity bounds tracked flows; TimeoutNS/GranularityNS control
	// their expiry.
	FlowCapacity             int
	TimeoutNS, GranularityNS uint64
	// HeartbeatTimeoutNS: backends with no heartbeat for this long are
	// considered unresponsive (the LB3 class).
	HeartbeatTimeoutNS uint64
	Seed               uint64
}

// LB is the built load balancer.
type LB struct {
	*Instance
	Flows *dslib.FlowTable
	Ring  *dslib.MaglevRing
}

// NewLB builds the load balancer. Per packet it expires stale flows;
// consumes backend heartbeats (LB5); forwards existing flows to their
// backend if it is alive (LB4), re-steers them when it is not (LB3);
// and assigns new flows via the Maglev ring (LB2).
func NewLB(cfg LBConfig) (*LB, error) {
	in := newInstance()
	flows := dslib.NewFlowTable(in.Env, dslib.FlowTableConfig{
		Name:          "flows",
		Capacity:      cfg.FlowCapacity,
		KeyWords:      3,
		TimeoutNS:     cfg.TimeoutNS,
		GranularityNS: cfg.GranularityNS,
		Seed:          cfg.Seed,
		ValueDomain:   &symb.Domain{Lo: 0, Hi: uint64(cfg.Backends) - 1},
		Costs:         dslib.VigNATCosts(),
	})
	ring, err := dslib.NewMaglevRing(in.Env, cfg.Backends, cfg.RingSize, cfg.HeartbeatTimeoutNS)
	if err != nil {
		return nil, err
	}
	in.register("flows", flows, flows.Model())
	in.register("ring", ring, ring.Model())

	base := c(uint64(cfg.BackendIPBase))
	steer := func(backendVar string) []nfir.Stmt {
		return []nfir.Stmt{
			nfir.PktStore{Off: c(30), Size: 4, Val: nfir.Add(base, l(backendVar))},
			fwd(c(LBPortBackend)),
		}
	}

	in.Prog = nfir.NewProgram("lb", 2, []nfir.Stmt{
		nfir.Invoke("flows", "expire", []nfir.Expr{nfir.Now{}}, "expired"),
		nfir.Then(nfir.Ne(ethType(), c(0x0800)), drp()),
		set("proto", ipProto()),
		// Backend heartbeats: UDP to the heartbeat port from the backend
		// side; the backend index is the low byte of the source address.
		nfir.Then(
			nfir.And2(nfir.Eq(nfir.InPort{}, c(LBPortBackend)),
				nfir.And2(nfir.Eq(l("proto"), c(17)),
					nfir.Eq(dstPort(), c(LBHeartbeatPort)))),
			nfir.Invoke("ring", "heartbeat",
				[]nfir.Expr{nfir.Band(srcIP(), c(0xFF)), nfir.Now{}}),
			drp(), // heartbeats are consumed (LB5)
		),
		nfir.Then(nfir.And2(nfir.Ne(l("proto"), c(6)), nfir.Ne(l("proto"), c(17))), drp()),
		set("k1", nfir.Bor(nfir.Shl(srcIP(), c(32)), dstIP())),
		set("k2", nfir.Bor(nfir.Shl(srcPort(), c(16)), dstPort())),
		nfir.Invoke("flows", "get",
			[]nfir.Expr{l("k1"), l("k2"), l("proto"), nfir.Now{}}, "backend", "found"),
		nfir.IfElse(nfir.Eq(l("found"), c(1)),
			[]nfir.Stmt{
				nfir.Invoke("ring", "alive", []nfir.Expr{l("backend"), nfir.Now{}}, "ok"),
				nfir.IfElse(nfir.Eq(l("ok"), c(1)),
					steer("backend"), // live backend (LB4)
					[]nfir.Stmt{ // unresponsive backend (LB3): re-steer
						set("h", nfir.Xor(l("k1"), l("k2"))),
						nfir.Invoke("ring", "pick_alive",
							[]nfir.Expr{l("h"), nfir.Now{}}, "nb", "any"),
						nfir.IfElse(nfir.Eq(l("any"), c(1)),
							append([]nfir.Stmt{
								nfir.Invoke("flows", "put",
									[]nfir.Expr{l("k1"), l("k2"), l("proto"), l("nb"), nfir.Now{}}, "st"),
							}, steer("nb")...),
							[]nfir.Stmt{drp()}, // no backend alive
						),
					},
				),
			},
			[]nfir.Stmt{ // new flow (LB2)
				set("h", nfir.Xor(l("k1"), l("k2"))),
				nfir.Invoke("ring", "pick_alive",
					[]nfir.Expr{l("h"), nfir.Now{}}, "nb2", "any2"),
				nfir.IfElse(nfir.Eq(l("any2"), c(1)),
					append([]nfir.Stmt{
						nfir.Invoke("flows", "put",
							[]nfir.Expr{l("k1"), l("k2"), l("proto"), l("nb2"), nfir.Now{}}, "st2"),
					}, steer("nb2")...),
					[]nfir.Stmt{drp()},
				),
			},
		),
	})
	return &LB{Instance: in, Flows: flows, Ring: ring}, nil
}

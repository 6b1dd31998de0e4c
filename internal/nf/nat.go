package nf

import (
	"gobolt/internal/dslib"
	"gobolt/internal/nfir"
)

// NAT port conventions: internal hosts sit behind port 0, the external
// network behind port 1.
const (
	NATPortInternal = 0
	NATPortExternal = 1
)

// NATConfig configures the VigNAT-style NAT.
type NATConfig struct {
	// ExternalIP is the NAT's public address, written into translated
	// packets.
	ExternalIP uint32
	// Capacity bounds concurrent flows.
	Capacity int
	// TimeoutNS and GranularityNS control flow expiry; a granularity of
	// one second reproduces the §5.3 batching bug.
	TimeoutNS, GranularityNS uint64
	// FirstPort/PortCount delimit the external port range.
	FirstPort, PortCount int
	Seed                 uint64
	// Allocator selects the port allocator ("A" doubly-linked list or
	// "B" array scan, the §5.3 comparison); default "A".
	Allocator string
}

// NAT is the built NAT NF.
type NAT struct {
	*Instance
	Map *dslib.NATMap
}

// NewNAT builds the NAT. Per packet it expires stale flows, drops
// non-IPv4 / non-TCP-UDP traffic (the paper's "invalid packets" class),
// translates internal→external flows (allocating a port for new flows),
// and reverse-translates external packets that match an allocation,
// dropping the rest (the NAT4 class).
func NewNAT(cfg NATConfig) *NAT {
	in := newInstance()
	if cfg.FirstPort == 0 {
		cfg.FirstPort = 1024
	}
	if cfg.PortCount == 0 {
		cfg.PortCount = cfg.Capacity
	}
	var alloc dslib.PortAllocator
	if cfg.Allocator == "B" {
		alloc = dslib.NewAllocatorB(in.Env, cfg.FirstPort, cfg.PortCount)
	} else {
		alloc = dslib.NewAllocatorA(in.Env, cfg.FirstPort, cfg.PortCount)
	}
	nm := dslib.NewNATMap(in.Env, dslib.NATMapConfig{
		Name:          "flows",
		Capacity:      cfg.Capacity,
		TimeoutNS:     cfg.TimeoutNS,
		GranularityNS: cfg.GranularityNS,
		Seed:          cfg.Seed,
		Costs:         dslib.VigNATCosts(),
		FirstPort:     cfg.FirstPort,
		PortCount:     cfg.PortCount,
	}, alloc)
	in.register("flows", nm, nm.Model())

	extIP := c(uint64(cfg.ExternalIP))
	in.Prog = nfir.NewProgram("nat", 2, []nfir.Stmt{
		nfir.Invoke("flows", "expire", []nfir.Expr{nfir.Now{}}, "expired"),
		// Invalid packets: non-IPv4, IP options, or non-TCP/UDP.
		nfir.Then(nfir.Ne(ethType(), c(0x0800)), drp()),
		nfir.Then(nfir.Ne(verIHL(), c(0x45)), drp()),
		set("proto", ipProto()),
		nfir.Then(nfir.And2(nfir.Ne(l("proto"), c(6)), nfir.Ne(l("proto"), c(17))), drp()),
		set("k1", nfir.Bor(nfir.Shl(srcIP(), c(32)), dstIP())),
		set("k2", nfir.Bor(nfir.Shl(srcPort(), c(16)), dstPort())),
		nfir.IfElse(nfir.Eq(nfir.InPort{}, c(NATPortInternal)),
			[]nfir.Stmt{ // internal → external
				nfir.Invoke("flows", "lookup_int",
					[]nfir.Expr{l("k1"), l("k2"), l("proto"), nfir.Now{}}, "xport", "found"),
				nfir.IfElse(nfir.Eq(l("found"), c(1)),
					[]nfir.Stmt{ // established flow (NAT3)
						nfir.PktStore{Off: c(26), Size: 4, Val: extIP},
						nfir.PktStore{Off: c(34), Size: 2, Val: l("xport")},
						fwd(c(NATPortExternal)),
					},
					[]nfir.Stmt{ // new flow (NAT2): allocate a mapping
						set("intInfo", nfir.Bor(nfir.Shl(srcIP(), c(16)), srcPort())),
						nfir.Invoke("flows", "add",
							[]nfir.Expr{l("k1"), l("k2"), l("proto"), l("intInfo"), nfir.Now{}},
							"xport2", "status"),
						nfir.IfElse(nfir.Eq(l("status"), c(dslib.AddStatusOK)),
							[]nfir.Stmt{
								nfir.PktStore{Off: c(26), Size: 4, Val: extIP},
								nfir.PktStore{Off: c(34), Size: 2, Val: l("xport2")},
								fwd(c(NATPortExternal)),
							},
							[]nfir.Stmt{drp()}, // table/ports full
						),
					},
				),
			},
			[]nfir.Stmt{ // external → internal
				nfir.Invoke("flows", "lookup_ext",
					[]nfir.Expr{dstPort(), nfir.Now{}}, "info", "found"),
				nfir.IfElse(nfir.Eq(l("found"), c(1)),
					[]nfir.Stmt{
						nfir.PktStore{Off: c(30), Size: 4, Val: nfir.Shr(l("info"), c(16))},
						nfir.PktStore{Off: c(36), Size: 2, Val: nfir.Band(l("info"), c(0xFFFF))},
						fwd(c(NATPortInternal)),
					},
					[]nfir.Stmt{drp()}, // no mapping (NAT4)
				),
			},
		),
	})
	return &NAT{Instance: in, Map: nm}
}

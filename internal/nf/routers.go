package nf

import (
	"gobolt/internal/dslib"
	"gobolt/internal/nfir"
)

// LPMRouterConfig configures the DIR-24-8 router (the paper's LPM NF).
type LPMRouterConfig struct {
	Ports       uint64
	DefaultPort uint16
	// MaxTbl8Groups bounds second-tier groups for long prefixes.
	MaxTbl8Groups int
}

// LPMRouter is the built router over DPDK's two-tier LPM table.
type LPMRouter struct {
	*Instance
	Table *dslib.Dir248
}

// NewLPMRouter builds the router: IPv4 + TTL validation, DIR-24-8
// lookup (one read for ≤24-bit matches — LPM2 — and two for longer —
// LPM1), TTL decrement, forward.
func NewLPMRouter(cfg LPMRouterConfig) *LPMRouter {
	if cfg.Ports == 0 {
		cfg.Ports = 16
	}
	if cfg.MaxTbl8Groups == 0 {
		cfg.MaxTbl8Groups = 256
	}
	in := newInstance()
	table := dslib.NewDir248(in.Env, cfg.DefaultPort, cfg.MaxTbl8Groups)
	in.register("lpm", table, table.Model())

	in.Prog = nfir.NewProgram("lpm-router", cfg.Ports, []nfir.Stmt{
		nfir.Then(nfir.Ne(ethType(), c(0x0800)), drp()),
		nfir.Then(nfir.Ne(verIHL(), c(0x45)), drp()),
		set("ttl", nfir.Field(22, 1)),
		nfir.Then(nfir.Le(l("ttl"), c(1)), drp()), // TTL expired
		nfir.Invoke("lpm", "get", []nfir.Expr{dstIP()}, "port"),
		// Per-hop rewrite: decrement TTL, incrementally patch the IPv4
		// checksum (RFC 1624), and rewrite both MAC addresses for the
		// next hop, as a real router's fast path does.
		nfir.PktStore{Off: c(22), Size: 1, Val: nfir.Sub(l("ttl"), c(1))},
		set("csum", nfir.Field(24, 2)),
		nfir.PktStore{Off: c(24), Size: 2, Val: nfir.Band(nfir.Add(l("csum"), c(0x0100)), c(0xFFFF))},
		nfir.PktStore{Off: c(0), Size: 2, Val: c(0x0200)}, // next-hop MAC hi
		nfir.PktStore{Off: c(2), Size: 4, Val: nfir.Add(c(0x10), l("port"))},
		nfir.PktStore{Off: c(6), Size: 2, Val: c(0x0200)}, // own MAC hi
		nfir.PktStore{Off: c(8), Size: 4, Val: c(0x01)},
		fwd(l("port")),
	})
	return &LPMRouter{Instance: in, Table: table}
}

// ExampleLPMConfig configures the §2.1 running-example router.
type ExampleLPMConfig struct {
	Ports       uint64
	DefaultPort uint64
}

// ExampleLPM is the stylised Patricia-trie router of §2.1 (Algorithm 1).
// Its generated contract reproduces the paper's Table 1 exactly:
// 2 IC / 1 MA for invalid packets, 4·l+5 IC / l+3 MA for valid ones.
type ExampleLPM struct {
	*Instance
	Trie *dslib.Patricia
}

// NewExampleLPM builds the running example.
func NewExampleLPM(cfg ExampleLPMConfig) *ExampleLPM {
	if cfg.Ports == 0 {
		cfg.Ports = 4
	}
	in := newInstance()
	trie := dslib.NewPatricia(in.Env, cfg.DefaultPort)
	in.register("lpm", trie, trie.Model())

	in.Prog = nfir.NewProgram("example-lpm", cfg.Ports, []nfir.Stmt{
		nfir.IfElse(nfir.Eq(ethType(), c(0x0800)),
			[]nfir.Stmt{
				nfir.Invoke("lpm", "get", []nfir.Expr{dstIP()}, "port"),
				fwd(l("port")),
			},
			[]nfir.Stmt{drp()},
		),
	})
	return &ExampleLPM{Instance: in, Trie: trie}
}

// FirewallConfig configures the §5.2 firewall: a rule scan plus the
// policy of dropping any packet carrying IP options.
type FirewallConfig struct {
	Rules []dslib.Rule
	// DefaultAccept: action when no rule matches.
	DefaultAccept bool
}

// Firewall is the built firewall NF.
type Firewall struct {
	*Instance
	Rules *dslib.RuleSet
}

// NewFirewall builds the firewall. Packets with IP options (IHL > 5)
// are dropped immediately — the cheap class of Table 5a — and the rest
// run the rule scan.
func NewFirewall(cfg FirewallConfig) *Firewall {
	in := newInstance()
	deflt := uint64(0)
	if cfg.DefaultAccept {
		deflt = 1
	}
	rules := dslib.NewRuleSet(in.Env, cfg.Rules, deflt)
	in.register("rules", rules, rules.Model())

	in.Prog = nfir.NewProgram("firewall", 2, []nfir.Stmt{
		nfir.Then(nfir.Ne(ethType(), c(0x0800)), drp()),
		// The IP-options policy: IHL != 5 → drop (Table 5a, "IP Options").
		nfir.Then(nfir.Ne(verIHL(), c(0x45)), drp()),
		set("proto", ipProto()),
		nfir.Invoke("rules", "match",
			[]nfir.Expr{srcIP(), dstIP(), srcPort(), dstPort(), l("proto")}, "action"),
		nfir.IfElse(nfir.Eq(l("action"), c(1)),
			[]nfir.Stmt{fwd(c(1))},
			[]nfir.Stmt{drp()},
		),
	})
	return &Firewall{Instance: in, Rules: rules}
}

// StaticRouterConfig configures the §5.2 static router, which processes
// IP timestamp options (expensively, per Table 5b).
type StaticRouterConfig struct {
	Ports       uint64
	DefaultPort uint16
}

// StaticRouter is the built static router.
type StaticRouter struct {
	*Instance
	Table *dslib.Dir248
}

// NewStaticRouter builds the static router: route lookup plus IP-option
// processing whose cost is 79·n + const over the options PCV n.
func NewStaticRouter(cfg StaticRouterConfig) *StaticRouter {
	if cfg.Ports == 0 {
		cfg.Ports = 4
	}
	in := newInstance()
	table := dslib.NewDir248(in.Env, cfg.DefaultPort, 16)
	in.register("routes", table, table.Model())
	in.register("optproc", dslib.OptionProcessor{}, dslib.OptionProcessor{}.Model())

	in.Prog = nfir.NewProgram("static-router", cfg.Ports, []nfir.Stmt{
		nfir.Then(nfir.Ne(ethType(), c(0x0800)), drp()),
		set("vi", verIHL()),
		nfir.Then(nfir.Ne(nfir.Shr(l("vi"), c(4)), c(4)), drp()), // not IPv4
		set("ihl", nfir.Band(l("vi"), c(0x0F))),
		nfir.Then(nfir.Lt(l("ihl"), c(5)), drp()), // malformed
		nfir.Invoke("optproc", "process", []nfir.Expr{l("ihl")}, "nopts"),
		nfir.Invoke("routes", "get", []nfir.Expr{dstIP()}, "port"),
		fwd(l("port")),
	})
	return &StaticRouter{Instance: in, Table: table}
}

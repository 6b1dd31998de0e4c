// Package nf implements the network functions the paper evaluates (§5):
// a MAC learning bridge, a VigNAT-style NAT, a Maglev-like load
// balancer, and an LPM router on DPDK's DIR-24-8 table — plus the §2.1
// running-example router and the firewall / static-router pair of the
// §5.2 chain experiment.
//
// Every NF is a Vigor-style split: stateless logic written in the nfir
// IR, with all state behind dslib structures. An Instance bundles the
// program with both link targets — the concrete data structures (the
// production build) and their symbolic models (the analysis build).
package nf

import (
	"gobolt/internal/dpdk"
	"gobolt/internal/nfir"
	"gobolt/internal/packet"
)

// FloodPort is the pseudo output port a bridge uses to flood.
const FloodPort = 0xFFFF

// Instance is a built NF: program + production environment + models.
type Instance struct {
	// Prog is the stateless packet-processing program.
	Prog *nfir.Program
	// Env is the production environment: real data structures, shared
	// heap, persistent across packets.
	Env *nfir.Env
	// Models maps data-structure names to symbolic models for analysis.
	Models map[string]nfir.Model
	// Stack is the framework substrate charged at FullStack level.
	Stack *dpdk.Stack
}

// newInstance starts an Instance; the caller sets Prog.
func newInstance() *Instance {
	return &Instance{
		Env:    nfir.NewEnv(),
		Models: make(map[string]nfir.Model),
		Stack:  dpdk.NewStack(),
	}
}

// register links a data structure into both builds.
func (in *Instance) register(name string, ds nfir.ConcreteDS, model nfir.Model) {
	in.Env.Link(name, ds)
	in.Models[name] = model
}

// Shorthands for the IR constructors, local to this package's NF
// definitions.
var (
	c   = nfir.C
	l   = nfir.L
	set = nfir.Set
	fwd = nfir.Fwd
	drp = nfir.Drop
)

// Common field expressions (Ethernet + IPv4 + L4, no VLAN).
func ethType() nfir.Expr { return nfir.Field(packet.OffEtherType, 2) }
func verIHL() nfir.Expr  { return nfir.Field(packet.OffIPVerIHL, 1) }
func ipProto() nfir.Expr { return nfir.Field(packet.OffIPProto, 1) }
func srcIP() nfir.Expr   { return nfir.Field(packet.OffSrcIP, 4) }
func dstIP() nfir.Expr   { return nfir.Field(packet.OffDstIP, 4) }
func srcPort() nfir.Expr { return nfir.Field(packet.OffSrcPort, 2) }
func dstPort() nfir.Expr { return nfir.Field(packet.OffDstPort, 2) }

// mac48 loads a 6-byte MAC at off as hi16<<32 | lo32.
func mac48(off uint64) nfir.Expr {
	return nfir.Bor(
		nfir.Shl(nfir.Field(off, 2), c(32)),
		nfir.Field(off+2, 4),
	)
}

// Package gobolt is a from-scratch Go reproduction of "Performance
// Contracts for Software Network Functions" (Iyer et al., NSDI 2019) —
// the BOLT system — grown past the paper into a small toolchain:
// contracts are versioned durable artifacts in a content-addressed
// store, checked online by a sharded monitor, generated from hand-built
// NFs or verified bytecode programs, and extended with a sharability
// analysis that models parallelized deployments ("how many cores do I
// need for this rate?").
//
// The library lives under internal/. Analysis: the contract construct,
// the BOLT generator, path coalescing, chain composition, the
// sharability analysis and core provisioning in internal/core; the
// symbolic-execution substrate in internal/symb; the NF intermediate
// representation and its concrete interpreter in internal/nfir; the
// pre-analysed stateful data-structure library (symbolic models +
// concrete implementations + sharability verdicts) in internal/dslib;
// the eBPF-like bytecode frontend (assembler, verifier, compiler,
// interpreter) in internal/bvm. Execution and validation: conservative,
// detailed, and sharded-deployment hardware models in internal/hwmodel;
// the Distiller in internal/distill; the online monitor in
// internal/monitor; workload generation in internal/traffic; the
// evaluated NFs in internal/nf; the paper's full evaluation plus the
// post-paper experiments in internal/experiments. Infrastructure: the
// artifact codec's store in internal/store, packet parsing in
// internal/packet, pcap I/O in internal/pcap, DPDK-style framework
// costs in internal/dpdk, metering in internal/perf, polynomial bounds
// in internal/expr, deterministic parallelism in internal/par.
//
// The commands under cmd/ are the operator surface: bolt (generate,
// print, export, provision), boltbench (reproduce the evaluation),
// boltmon (watch live traffic against a contract), boltctl (administer
// the contract store), distiller and trafficgen (offline tooling).
//
// See README.md for the architecture map, DESIGN.md for the departures
// from the paper, and EXPERIMENTS.md for reproduced-vs-published
// results. `go run ./cmd/boltbench` regenerates every table and figure.
package gobolt

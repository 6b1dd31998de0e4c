// Command trafficgen produces PCAP workloads for the evaluated packet
// classes — the MoonGen/CASTAN stand-in of the reproduction.
//
// Usage:
//
//	trafficgen -class uniform|bridge|broadcast|lpm|options|invalid
//	           -out workload.pcap [-packets N] [-seed S]
//
// -packets must be at least 1 (exit 2 otherwise); an unknown class exits
// 1 naming the valid ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gobolt/internal/pcap"
	"gobolt/internal/traffic"
)

// classes are the packet classes -class accepts.
var classes = []string{"uniform", "bridge", "broadcast", "lpm", "options", "invalid"}

func main() {
	var (
		class   = flag.String("class", "uniform", "packet class: "+strings.Join(classes, ", "))
		out     = flag.String("out", "workload.pcap", "output pcap path")
		packets = flag.Int("packets", 10000, "packets to generate (at least 1)")
		seed    = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()
	if *packets < 1 {
		fmt.Fprintf(os.Stderr, "trafficgen: -packets must be at least 1, got %d\n", *packets)
		os.Exit(2)
	}

	var pkts []traffic.Packet
	switch *class {
	case "uniform":
		pkts = traffic.UDPFlows(traffic.UDPFlowConfig{
			Packets: *packets, Flows: max(1, *packets/8), NewFlowEvery: 16,
			StartNS: 1_000, GapNS: 10_000, Seed: *seed,
		})
	case "bridge":
		pkts = traffic.BridgeFrames(traffic.BridgeConfig{
			Packets: *packets, MACs: 1024, Ports: 4,
			StartNS: 1_000, GapNS: 10_000, Seed: *seed,
		})
	case "broadcast":
		pkts = traffic.BridgeFrames(traffic.BridgeConfig{
			Packets: *packets, MACs: 1024, BroadcastFraction: 1, Ports: 4,
			StartNS: 1_000, GapNS: 10_000, Seed: *seed,
		})
	case "lpm":
		pkts = traffic.LPMPackets(traffic.LPMConfig{
			Packets: *packets,
			Dsts:    []uint32{0x0A000001, 0xC0A80101, 0x08080808, 0xC0A801FF},
			StartNS: 1_000, GapNS: 10_000, Seed: *seed,
		})
	case "options":
		for i := 0; i < *packets; i++ {
			pkts = append(pkts, traffic.WithOptions(1+i%8, uint64(1_000+i*10_000), 0))
		}
	case "invalid":
		for i := 0; i < *packets; i++ {
			pkts = append(pkts, traffic.NonIPv4(uint64(1_000+i*10_000), 0))
		}
	default:
		fatal(fmt.Errorf("unknown class %q (known: %s)", *class, strings.Join(classes, ", ")))
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := pcap.WriteAll(f, traffic.ToPCAP(pkts)); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d packets (%s class) to %s\n", len(pkts), *class, *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trafficgen:", err)
	os.Exit(1)
}

// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload per invocation over inputs generated from --seed,
// measures for --seconds seconds, checks the program's outputs, and
// prints a human-readable report followed by one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, the same four on
// every workload; with --trace 1 the harness records spans around its
// calls into each layer and reports every per-layer metric and the
// tracing overhead instead.
//
// Workloads (see README.md for why each exists):
//
//	fig5     experiments.RunFig5: topology, core beaconing, intra-ISD
//	         beaconing and the BGP denominator
//	flows    flow-level multipath transfer under a link-flap storm
//	forward  the wire-format forwarding engine, closed and open loop,
//	         minimum-size packets
//	forward_mtu  the same with MTU-size packets
//	fleet    a replicated path-server fleet: lookups, WAL-journalled
//	         mutations and follower crash recovery
//
// Build and run it through run.sh from the repository root.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// processStart anchors setup_s: the first set-up of a run is timed from
// process start, so runtime and input generation count as set-up.
var processStart = time.Now()

// opts are one invocation's settings.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to the self-test's size.
	tiny bool
	// fwdRate is the forward workload's open-loop offered rate (pkts/s).
	fwdRate float64
	// corrupt names one output check whose expected value is altered,
	// so a test can show that the check fails.
	corrupt string
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(o opts, r *report) error{
	"fig5":        runFig5,
	"flows":       runFlows,
	"forward":     runForward,
	"forward_mtu": runForwardMTU,
	"fleet":       runFleet,
}

func main() {
	var o opts
	var trace int
	var heldout int64
	flag.StringVar(&o.workload, "workload", "", "workload: fig5 | flows | forward | forward_mtu | fleet")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the timed phase runs")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.Float64Var(&o.fwdRate, "fwd-rate", 25000, "forward workload open-loop offered rate in packets/s")
	flag.Int64Var(&heldout, "heldout-seed", 0, "seed reserved for checking claims; echoed in the report")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	run, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if o.seconds <= 0 || o.fwdRate <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds and --fwd-rate must be positive")
		os.Exit(2)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d heldout-seed=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), heldout)
	r := newReport(o)
	if err := run(o, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !r.correct() {
		os.Exit(1)
	}
}

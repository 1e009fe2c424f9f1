// Command perfbench is the repository benchmark. It runs one closed-
// loop workload against the middleware's public entry points, checks
// every result against a reference computed a different way, and
// prints its metrics as one JSON object on the last line of standard
// output. See NOTES.md.
//
//	perfbench --workload paper-full --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "paper-full, plan-small or serving-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and the statement stream")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds (a run ends on a cycle boundary)")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.log = os.Stderr
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	rep, err := runBenchmark(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

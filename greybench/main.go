// Command greybench prices one RCPT verdict of greylistd, end to end
// and layer by layer, in process. It wires greylistd's production
// configuration (engine, bypass chain, WAL, trace ring, observatory,
// SMTP server) exactly as cmd/greylistd does with its defaults, and
// drives it through an in-memory listener whose connections run a
// scripted SMTP client inside the server's own Read and Write calls.
// A simulated clock drives every policy decision, so verdicts depend
// only on the seed.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash greybench/run.sh --workload mixed --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the
// correctness verdict and the metrics; the ledger and the gate's
// details go to standard error. See greybench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var o opts
	flag.StringVar(&o.workload, "workload", "mixed", "workload: mixed, probe or rotation")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 15, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer ledger from interleaved traced rounds")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for checkpoints and logs (a private subdirectory is removed at exit)")
	flag.Parse()
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greybench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greybench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

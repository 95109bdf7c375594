// Command perfbench is nxzip's host-speed benchmark. It drives the public
// nxzip API from one process over a seeded workload, checks every output
// byte for byte, and prints the end-to-end metrics (trace 0) or the
// per-layer ledger (trace 1). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload bulk|smallreq|stream --seed N --seconds S --trace 0|1
//
// Exit status is 0 only when every call succeeded and every output matched.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// processStart anchors setup_s: the first setup repetition is timed from
// process start, so runtime initialisation is part of it.
var processStart = time.Now()

// setupReps is how many times a run builds its workload from scratch; the
// median of the repetitions is setup_s and the last one is measured.
const setupReps = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
	// corrupt flips one byte of the first output checked in the measured
	// phase, so a run proves its correctness check can fail.
	corrupt bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: bulk, smallreq or stream")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run with the per-layer ledger")
	fs.StringVar(&o.outDir, "out", ".", "directory for the span file of a traced run")
	fs.BoolVar(&o.corrupt, "corrupt", false, "self-test: corrupt one checked output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute sets the workload up setupReps times, then measures the last
// instance untraced (trace 0) or untraced-then-traced (trace 1).
func execute(o options, stdout io.Writer) (*result, error) {
	newWL := workloads[o.workload]
	nproc := runtime.NumCPU()
	var (
		w      workload
		setups []float64
		ref    refTotals
	)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if w != nil {
			w.close()
		}
		var err error
		w, err = newWL(o.seed, nproc)
		if err != nil {
			return nil, err
		}
		r, err := referencePass(w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		// The reference figures depend only on the seed: a repetition
		// that disagrees with the first is a determinism failure.
		if i > 0 && r != ref {
			return nil, fmt.Errorf("reference pass differs between setups: %+v vs %+v", r, ref)
		}
		ref = r
	}
	defer w.close()
	meta := runMeta(o, w)
	fmt.Fprintf(stdout, "meta %s\n", meta)

	dur := time.Duration(o.seconds) * time.Second
	if !o.trace {
		ph := measure(w, dur, o.corrupt, nil)
		printFailures(stdout, ph)
		res := e2eResult(ph, ref, median(setups))
		printE2E(stdout, o.workload, res, ph)
		return res, nil
	}
	// Traced run: half the time untraced (the overhead baseline and the
	// Go runtime figures), half traced.
	tl := newLedgerRun(w, o.seed)
	tl.countPass()
	tl.before = tl.sample()
	plain := measure(w, dur/2, o.corrupt, nil)
	tl.after = tl.sample()
	traced := measure(w, dur/2, false, tl)
	printFailures(stdout, plain)
	printFailures(stdout, traced)
	res, rows := tl.result(plain, traced)
	path, err := tl.writeSpans(o.outDir, o.workload, meta)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "spans %s\n", path)
	printLedger(stdout, o.workload, rows)
	return res, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

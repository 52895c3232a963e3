// Command bench is the repository benchmark: wall time to a census over
// five workloads, with a per-layer traced run. See README.md.
//
//	go run -C bench chipmunk/bench                      # all workloads, end-to-end metrics
//	go run -C bench chipmunk/bench -trace 1             # all workloads, per-layer metrics
//	go run -C bench chipmunk/bench -workload sweep7     # one workload (the driver's interface)
//	go run -C bench chipmunk/bench -compare A.json B.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	started := time.Now()
	var (
		workload = flag.String("workload", "", "run this one workload and print its result object as the last line (default: all, one child process each)")
		seed     = flag.Int64("seed", 1, "workload seed: permutes suite order (the campaign and fleet workloads are seed-independent)")
		seconds  = flag.Int("seconds", runSeconds, "length of the timed window; at least 3 repetitions run regardless")
		trace    = flag.Int("trace", 0, "1 = the traced run: one repetition, per-layer metrics, out/trace-<workload>.jsonl")
		smoke    = flag.Bool("smoke", false, "tiny sizes (8 workloads per suite, 10 execs), one repetition: makes every call the full run makes")
		outdir   = flag.String("outdir", "out", "directory for result and trace files")
		out      = flag.String("out", "", "summary file (default <outdir>/summary.json, summary-trace.json with -trace 1)")
		compare  = flag.Bool("compare", false, "compare two summary files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, outdir: *outdir, started: started}
	if o.workload != "" {
		os.Exit(runChild(o))
	}
	if *out == "" {
		*out = filepath.Join(o.outdir, "summary.json")
		if o.trace {
			*out = filepath.Join(o.outdir, "summary-trace.json")
		}
	}
	os.Exit(runParent(o, *out))
}

// runParent re-executes this binary once per workload — fresh pools, arenas
// and GC state each — collects the result files, makes the cross-workload
// checks and writes the summary.
func runParent(o options, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	sum := &summary{Meta: newMeta(o.seed, o.trace, o.smoke), Workloads: map[string]*result{}}
	code := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-outdir", o.outdir, fmt.Sprintf("-smoke=%t", o.smoke),
		}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		// Everything but the child's last line (the driver's object) is
		// the human-readable metric list.
		lines := bytes.Split(bytes.TrimRight(stdout.Bytes(), "\n"), []byte("\n"))
		os.Stdout.Write(bytes.Join(lines[:max(len(lines)-1, 0)], []byte("\n")))
		io.WriteString(os.Stdout, "\n")
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.Name, runErr)
			code = 1
		}
		res := &result{}
		if err := readJSON(resultPath(o.outdir, w.Name, o.trace), res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s left no result: %v\n", w.Name, err)
			code = 1
			continue
		}
		sum.Workloads[w.Name] = res
	}
	sum.crossCheck()
	for _, msg := range sum.CrossChecks {
		fmt.Printf("CHECK %s\n", msg)
	}
	if len(sum.Workloads) != len(workloads) {
		sum.Correct = false
	}
	code = max(code, exitCode(sum.Correct))
	if err := writeJSON(out, sum); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("summary written to %s; every output check passed: %t\n", out, sum.Correct)
	return code
}

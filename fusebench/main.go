// fusebench is the service-level benchmark of the fusion daemon at the
// paper's geometry (320×320×105). It boots an in-process service.Pool
// with fusiond's flag defaults for this host, serves Pool.Handler() on a
// loopback listener, and drives it only through fusionclient in a
// closed loop. See README.md for the workloads, the metric list and the
// layer → end-to-end mapping.
//
//	fusebench --workload cold-mix --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run is split into
// an untraced half and a traced half and the metrics are the per-layer
// ones, plus the tracing overhead between the two halves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"resilientfusion/internal/experiments"
)

func main() {
	if err := runMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fusebench:", err)
		os.Exit(1)
	}
}

func runMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fusebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	workDir := fs.String("workdir", ".bench_build", "directory for temporary spool, journal and trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloadByName(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	// The paper's geometry; the self-test sets a reduced one through
	// runConfig directly.
	paper := experiments.PaperScale().Scene
	cfg := runConfig{
		workload: wl,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		width:    paper.Width, height: paper.Height, bands: paper.Bands,
		workDir: *workDir,
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	res.report(stdout)
	line, err := json.Marshal(res.summary())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

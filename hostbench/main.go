// Command hostbench measures what it costs the host to produce the
// simulator's numbers and to serve plans, end to end and per layer.
// It drives the repository's packages from outside, through their
// public constructors and entry points, and times those calls.
//
// Run it from the repository root through its wrapper, which builds it
// first:
//
//	bash hostbench/run.sh --workload round-heavy --seed 1 --seconds 30 --trace 0
//
// Workloads: round-heavy, rank-heavy and plan-serve (README.md says
// why each exists and which layer metric should move which end-to-end
// metric on it). With --trace 0 the last
// line of standard output is a JSON object with the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics, including
// a CPU and allocation profile of the workload. Simulated results are
// deterministic, so they are checked against hostbench/reference.json
// (or, for an unrecorded seed, against their own first repetition)
// rather than reported; a mismatch counts as a failed operation.
//
// --record re-runs one cycle of the workload and stores its digests as
// the seed's reference instead of measuring.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's checks and metrics.
type report struct {
	attempted, failed int
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// checkErr counts one checked operation; a non-nil err is a failure,
// logged to standard error.
func (r *report) checkErr(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "hostbench: FAIL:", err)
	}
}

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// keep drops every metric not in names, so each mode prints exactly
// its declared set.
func (r *report) keep(names []string) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
		if _, ok := r.metrics[n]; !ok {
			fmt.Fprintf(os.Stderr, "hostbench: metric %s was not measured\n", n)
			r.failed++
		}
	}
	for n := range r.metrics {
		if !want[n] {
			delete(r.metrics, n)
		}
	}
}

// endToEnd lists the metrics every untraced run prints.
var endToEnd = []string{
	"sim_mb_per_s", "req_per_s", "lat_p50_ms", "lat_p99_ms",
	"host_allocs", "host_alloc_mb", "host_mem_mb", "setup_s",
}

// perLayer lists the metrics every traced run prints.
func perLayer() []string {
	names := []string{
		"mpi.allgather_ms", "collio.plan_from_meta_ms",
		"mpi.msgs_intra", "mpi.msgs_inter", "mpi.bytes_intra", "mpi.bytes_inter",
		"collio.rounds", "resource.transfers", "resource.membus_busy_s",
		"resource.nic_busy_s", "resource.bisection_busy_s",
		"pfs.requests", "pfs.ost_busy_max_s",
		"core.inspect_ms", "core.groups", "core.domains", "core.remerges",
		"core.aggregators", "twolayer.leaders",
		"collio.shuffle_intra_mb", "collio.shuffle_inter_mb",
		"pland.hit_p50_ms", "pland.miss_p50_ms", "pland.sim_p50_ms",
		"pland.hit_rate", "pland.coalesced", "pland.shed",
		"workload.view_ms", "cluster.new_ms", "pfs.new_ms", "mpi.new_world_ms",
		"cluster.overcommit_nodes",
	}
	for _, e := range cumEntries {
		names = append(names, "host_cum."+e.metric)
	}
	for _, p := range selfPackages {
		names = append(names, "host_self."+p)
	}
	for _, p := range runtimeShares {
		names = append(names, "host_self."+p)
	}
	for _, p := range selfPackages {
		names = append(names, "host_alloc_mb."+p)
	}
	names = append(names, obsMetrics...)
	return append(names, "trace.overhead_pct", "error_rate")
}

// options are the command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	record   bool
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var traceFlag int
	var secs int
	flag.StringVar(&o.workload, "workload", "", "workload: round-heavy, rank-heavy or plan-serve")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: memory draws, storage jitter, key order")
	flag.IntVar(&secs, "seconds", 30, "seconds of measurement")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.BoolVar(&o.record, "record", false, "store this seed's digests as its reference instead of measuring")
	flag.Parse()
	o.seconds = float64(secs)
	o.trace = traceFlag == 1
	if secs < 1 || (traceFlag != 0 && traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "hostbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	refs, err := parseReferences(referenceJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	rep := newReport()
	switch o.workload {
	case "round-heavy", "rank-heavy":
		err = runSimWorkload(o, simWorkloads[o.workload](o.seed), refs, rep)
	case "plan-serve":
		err = runServeWorkload(o, refs, rep)
	default:
		fmt.Fprintf(os.Stderr, "hostbench: unknown workload %q (want round-heavy, rank-heavy or plan-serve)\n", o.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	if o.record {
		return 0
	}
	// The table shows every metric measured; in a traced run that is the
	// end-to-end metrics of its untraced half as well. The JSON line
	// carries the mode's declared set.
	if o.trace {
		rep.set("error_rate", float64(rep.failed)/math.Max(1, float64(rep.attempted)), "ratio")
		printTable(rep)
		rep.keep(perLayer())
	} else {
		printTable(rep)
		rep.keep(endToEnd)
	}
	out, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// printTable writes the metrics as an aligned name/value/unit table.
func printTable(rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("%-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("%-32s %16d\n%-32s %16d\n", "attempted", rep.attempted, "failed", rep.failed)
}

// percentile returns the p-th percentile (0..100) of sorted xs by
// linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// since returns seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// simWorkload is a simulation workload: the shapes its timed cycle
// runs every strategy and operation on, the shapes the planner probes
// run on, small shapes for the real-byte verification runs, and the
// Allgather probe's world size.
type simWorkload struct {
	name         string
	shapes       []shape
	probe        []shape
	verify       []shape
	ranks, nodes int
}

var simWorkloads = map[string]func(seed uint64) simWorkload{
	"round-heavy": roundHeavy,
	"rank-heavy":  rankHeavy,
}

// roundDraws is how many memory draws round-heavy simulates per shape:
// with two nodes a single draw decides a simulation's round count
// almost alone, so each cycle averages over several machines.
const roundDraws = 16

// roundHeavy is 24 ranks on 2 nodes × 12 cores with scarce, varied
// memory: IOR interleaved (2 MiB blocks × 8 segments) and coll_perf
// (a 128×64×64 array of 512-byte elements, a noncontiguous view),
// each at 2 and 4 MiB per node, on roundDraws memory draws derived
// from the seed. Simulations run hundreds of rounds, so the round loop
// does the work and metadata collectives over 24 ranks cost almost
// nothing.
func roundHeavy(seed uint64) simWorkload {
	ior := workload.IOR{Ranks: 24, BlockSize: 2 * cluster.MiB, Segments: 8, TransferSize: 2 * cluster.MiB}
	cp := workload.CollPerf3D{Dims: [3]int64{128, 64, 64}, Procs: workload.Grid3(24), Elem: 512}
	smallIOR := workload.IOR{Ranks: 24, BlockSize: 64 << 10, Segments: 4, TransferSize: 64 << 10}
	smallCP := workload.CollPerf3D{Dims: [3]int64{32, 32, 32}, Procs: workload.Grid3(24), Elem: 8}
	w := simWorkload{name: "round-heavy", ranks: 24, nodes: 2}
	draws := stats.NewRNG(seed)
	for d := 0; d < roundDraws; d++ {
		ds := draws.Uint64()
		for _, wl := range []struct {
			name string
			wl   workload.Workload
		}{{"ior", ior}, {"collperf3d", cp}} {
			for _, mem := range []int64{2 * cluster.MiB, 4 * cluster.MiB} {
				name := fmt.Sprintf("%s/d%d", wl.name, d)
				w.shapes = append(w.shapes, newShape(name, wl.wl, 2, mem, ds))
			}
		}
	}
	w.probe = w.shapes[:4] // the first draw of each pattern and budget
	w.verify = []shape{
		newShape("verify-ior", smallIOR, 2, 256<<10, seed),
		newShape("verify-collperf3d", smallCP, 2, 256<<10, seed),
	}
	return w
}

// rankHeavy is 480 ranks on 40 nodes × 12 cores: IOR with one 1 MiB
// block per rank at 8 MiB per node, about 6 rounds. The metadata
// collectives and the plan every rank builds dominate the host cost.
func rankHeavy(seed uint64) simWorkload {
	ior := workload.IOR{Ranks: 480, BlockSize: cluster.MiB, Segments: 1, TransferSize: cluster.MiB}
	small := workload.IOR{Ranks: 120, BlockSize: 64 << 10, Segments: 1, TransferSize: 64 << 10}
	shapes := []shape{newShape("ior", ior, 40, 8*cluster.MiB, seed)}
	return simWorkload{
		name:   "rank-heavy",
		shapes: shapes,
		probe:  shapes,
		verify: []shape{newShape("verify-ior", small, 10, 256<<10, seed)},
		ranks:  480, nodes: 40,
	}
}

// newShape builds a sweep-style shape: the testbed at nodes nodes with
// mem per node, and MCCIO tuned as the experiment sweeps tune it.
func newShape(name string, wl workload.Workload, nodes int, mem int64, seed uint64) shape {
	mc, fc := testbedMachine(nodes, mem, seed), testbedFS(seed)
	return shape{
		name:    fmt.Sprintf("%s/mem=%dKiB", name, mem>>10),
		machine: mc,
		fs:      fc,
		wl:      wl,
		mem:     mem,
		mccio:   sweepOptions(mc, fc, wl.TotalBytes(), mem),
	}
}

// obsPhases are the obs tracer's top-level phases the traced run
// reports, as per-rank mean virtual seconds summed over one cycle.
var obsPhases = []struct {
	metric string
	phase  obs.Phase
}{
	{"obs.plan_s", obs.PhasePlan},
	{"obs.req_exchange_s", obs.PhaseReqExchange},
	{"obs.exchange_s", obs.PhaseExchange},
	{"obs.io_s", obs.PhaseIO},
	{"obs.barrier_s", obs.PhaseBarrier},
}

var obsMetrics = func() []string {
	var out []string
	for _, p := range obsPhases {
		out = append(out, p.metric)
	}
	return out
}()

// cycles is the outcome of running a workload's specs in whole cycles.
type cycles struct {
	runs   [][]simRun // per spec, one entry per cycle
	n      int
	wallS  float64
	cost   hostCost
	peaks  []float64          // per cycle, the highest live heap sampled, bytes
	phases map[string]float64 // obs metric → seconds, traced first cycle only
}

// runCycles runs every spec once per cycle, whole cycles only, until
// budget seconds have passed. Each run's digest is checked against the
// reference; traced cycles attach an event tracer to every run. With
// h non-nil, each run's CPU times are scaled to nominal host speed;
// wallS leaves out the time spent sampling the speed.
func runCycles(specs []simSpec, budget float64, traced bool, h *hostSpeed, rc *rowChecker, rep *report) cycles {
	c := cycles{runs: make([][]simRun, len(specs)), phases: map[string]float64{}}
	m := startMeter()
	start := time.Now()
	spent0 := h.spent()
	h.sample() // the speed before the first run
	for c.n == 0 || since(start)-(h.spent()-spent0) < budget {
		for i, sp := range specs {
			var tr *obs.Tracer
			if traced {
				tr = obs.NewTracer()
			}
			r, err := runSim(sp, tr)
			if err == nil {
				err = rc.match(sp.key, r.digest)
			}
			if err == nil && r.counters.overcommit > 0 {
				err = fmt.Errorf("%s: %d nodes allocated past their memory capacity", sp.key, r.counters.overcommit)
			}
			rep.checkErr(err)
			c.runs[i] = append(c.runs[i], r)
			k := len(c.runs[i]) - 1
			h.scale(func(f float64) {
				c.runs[i][k].cpuS *= f
				c.runs[i][k].setupCPU *= f
			})
			if traced && c.n == 0 {
				sum := obs.Summarize(tr.Events())
				for _, p := range obsPhases {
					c.phases[p.metric] += sum.PhaseSeconds(p.phase) / float64(sp.wl.NumRanks())
				}
			}
		}
		c.peaks = append(c.peaks, float64(m.window()))
		c.n++
	}
	h.flush()
	c.wallS = since(start) - (h.spent() - spent0)
	c.cost = m.finish()
	return c
}

// ops is the number of simulations the cycles ran.
func (c cycles) ops() int { return c.n * len(c.runs) }

// medianOf returns the median over spec i's repetitions of f.
func (c cycles) medianOf(i int, f func(simRun) float64) float64 {
	xs := make([]float64, len(c.runs[i]))
	for k, r := range c.runs[i] {
		xs[k] = f(r)
	}
	return median(xs)
}

// sumMedians sums, over specs, the median of f across repetitions: the
// host cost of one typical cycle.
func (c cycles) sumMedians(f func(simRun) float64) float64 {
	var s float64
	for i := range c.runs {
		s += c.medianOf(i, f)
	}
	return s
}

func runSimWorkload(o options, w simWorkload, refs references, rep *report) error {
	specs := specsFor(w.shapes)
	rc := newRowChecker(refs, w.name, o.seed)
	if o.record {
		var rows []row
		for _, sp := range specs {
			r, err := runSim(sp, nil)
			if err != nil {
				return err
			}
			rows = append(rows, row{sp.key, r.digest})
		}
		return recordReference(w.name, o.seed, rows)
	}
	if !rc.hasRecorded() {
		fmt.Fprintf(os.Stderr, "hostbench: no recorded reference for %s seed %d; checking repetitions against the first\n", w.name, o.seed)
	}
	for _, spec := range verifySpecs(w.verify) {
		_, err := bench.RunOnce(spec)
		rep.checkErr(err)
	}
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	h := newHostSpeed()
	plain := runCycles(specs, budget, false, h, rc, rep)
	h.print()
	simEndToEnd(plain, specs, rep)
	if !o.trace {
		return nil
	}
	simLayers(plain, specs, rep)
	if err := probeLayers(w, rep); err != nil {
		return err
	}
	capt, err := startCapture()
	if err != nil {
		return err
	}
	traced := runCycles(specs, budget, true, nil, rc, rep)
	hp, err := capt.stop()
	if err != nil {
		return err
	}
	setProfile(rep, hp, traced.ops())
	for _, p := range obsPhases {
		rep.set(p.metric, traced.phases[p.metric], "s")
	}
	overhead := (traced.wallS/float64(traced.n))/(plain.wallS/float64(plain.n)) - 1
	rep.set("trace.overhead_pct", 100*overhead, "%")
	setPland(rep, loadStats{}) // no daemon on this workload
	return nil
}

// simEndToEnd derives the end-to-end metrics of a sim workload from
// its untraced cycles. Host time is process CPU time: simulations run
// serially, so it is the work each one cost the host, and unlike wall
// time it leaves out the time a shared host lends the process's CPUs
// to other tenants. Every repetition of a simulation does identical
// work, so a simulation's cost is its median over the repetitions;
// throughputs and latency percentiles are taken over those medians,
// which leaves one slow repetition without effect.
func simEndToEnd(c cycles, specs []simSpec, rep *report) {
	lats := make([]float64, len(specs))
	var cycleS, mb float64
	for i, sp := range specs {
		lats[i] = c.medianOf(i, func(r simRun) float64 { return r.cpuS })
		cycleS += lats[i]
		mb += float64(sp.wl.TotalBytes()) / 1e6
	}
	sort.Float64s(lats)
	ops := float64(c.ops())
	rep.set("sim_mb_per_s", mb/cycleS, "MB/s")
	rep.set("req_per_s", float64(len(specs))/cycleS, "1/s")
	rep.set("lat_p50_ms", 1e3*percentile(lats, 50), "ms")
	rep.set("lat_p99_ms", 1e3*percentile(lats, 99), "ms")
	rep.set("host_allocs", float64(c.cost.allocs)/ops, "allocs/op")
	rep.set("host_alloc_mb", float64(c.cost.allocBytes)/1e6/ops, "MB/op")
	// The median cycle's peak: the peak over the whole run would grow
	// with the number of cycles a run fits, and so with the host's speed.
	rep.set("host_mem_mb", median(c.peaks)/1e6, "MB")
	rep.set("setup_s", c.sumMedians(func(r simRun) float64 { return r.setupCPU }), "s")
	fmt.Printf("timed: %d cycles of %d simulations in %.1fs wall; latency samples: %d simulations, each the median of %d runs\n",
		c.n, len(specs), c.wallS, len(specs), c.n)
}

// simLayers sets the per-layer counters and set-up timings of a sim
// workload from its untraced cycles: counters summed over one cycle,
// set-up times as per-simulation medians summed over the cycle.
func simLayers(c cycles, specs []simSpec, rep *report) {
	var k simCounters
	var rounds, intra, inter float64
	for i := range specs {
		r := c.runs[i][0]
		k.add(r.counters)
		rounds += float64(r.res.Rounds)
		intra += float64(r.res.BytesShuffleIntra) / 1e6
		inter += float64(r.res.BytesShuffleInter) / 1e6
	}
	setCounters(rep, k, rounds, intra, inter)
	ms := func(f func(setupTimes) float64) float64 {
		return 1e3 * c.sumMedians(func(r simRun) float64 { return f(r.setup) })
	}
	rep.set("workload.view_ms", ms(func(s setupTimes) float64 { return s.view }), "ms")
	rep.set("cluster.new_ms", ms(func(s setupTimes) float64 { return s.cluster }), "ms")
	rep.set("pfs.new_ms", ms(func(s setupTimes) float64 { return s.pfs }), "ms")
	rep.set("mpi.new_world_ms", ms(func(s setupTimes) float64 { return s.world }), "ms")
}

func setCounters(rep *report, k simCounters, rounds, intraMB, interMB float64) {
	rep.set("mpi.msgs_intra", float64(k.msgsIntra), "count")
	rep.set("mpi.msgs_inter", float64(k.msgsInter), "count")
	rep.set("mpi.bytes_intra", float64(k.bytesIntra), "bytes")
	rep.set("mpi.bytes_inter", float64(k.bytesInter), "bytes")
	rep.set("collio.rounds", rounds, "count")
	rep.set("resource.transfers", float64(k.transfers), "count")
	rep.set("resource.membus_busy_s", k.membusBusy, "s")
	rep.set("resource.nic_busy_s", k.nicBusy, "s")
	rep.set("resource.bisection_busy_s", k.bisectionBusy, "s")
	rep.set("pfs.requests", float64(k.pfsRequests), "count")
	rep.set("pfs.ost_busy_max_s", k.ostBusyMax, "s")
	rep.set("collio.shuffle_intra_mb", intraMB, "MB")
	rep.set("collio.shuffle_inter_mb", interMB, "MB")
	rep.set("cluster.overcommit_nodes", float64(k.overcommit), "count")
}

// probeLayers runs the warmed-up layer probes on the workload's shapes:
// the Allgather-only world at the workload's rank count and the
// comm-free planners on every shape's views.
func probeLayers(w simWorkload, rep *report) error {
	ag, err := timeMedian(func() (float64, error) { return allgatherOnce(w.ranks, w.nodes) })
	rep.checkErr(err)
	rep.set("mpi.allgather_ms", 1e3*ag, "ms")
	var pp planProbe
	for _, sh := range w.probe {
		p, err := probePlanners(sh)
		rep.checkErr(err)
		pp.add(p)
	}
	setPlanProbe(rep, pp)
	return nil
}

func setPlanProbe(rep *report, pp planProbe) {
	rep.set("collio.plan_from_meta_ms", 1e3*pp.planFromMetaS, "ms")
	rep.set("core.inspect_ms", 1e3*pp.inspectS, "ms")
	rep.set("core.groups", float64(pp.groups), "count")
	rep.set("core.domains", float64(pp.domains), "count")
	rep.set("core.remerges", float64(pp.remerges), "count")
	rep.set("core.aggregators", float64(pp.aggs), "count")
	rep.set("twolayer.leaders", float64(pp.leaders), "count")
}

// setProfile reports the traced run's CPU shares and per-package
// allocation volume per operation.
func setProfile(rep *report, hp *hostProfile, ops int) {
	for _, e := range cumEntries {
		rep.set("host_cum."+e.metric, hp.cumPct[e.metric], "%")
	}
	for p, v := range hp.selfPct {
		rep.set("host_self."+p, v, "%")
	}
	for p, v := range hp.allocMB {
		rep.set("host_alloc_mb."+p, v/float64(ops), "MB/op")
	}
	fmt.Printf("traced: %.2f CPU-seconds sampled over %d operations\n", hp.cpuS, ops)
}

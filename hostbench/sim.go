package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/twolayer"
	"repro/internal/workload"
)

// sigmaBytes is the paper's memory variance: per-node aggregation
// memory is normal with σ = 50 MB around the nominal budget.
const sigmaBytes = 50 * cluster.MB

// simSpec is one simulation of a workload's cycle: a strategy and an
// operation on one platform and access pattern.
type simSpec struct {
	key     string
	strat   iolib.Collective
	op      string
	machine cluster.Config
	fs      pfs.Config
	wl      workload.Workload
}

// shape is one (platform, access pattern, memory budget) combination;
// a workload's cycle runs every strategy and operation on each shape,
// and the layer probes run on each shape's views.
type shape struct {
	name    string
	machine cluster.Config
	fs      pfs.Config
	wl      workload.Workload
	mem     int64
	mccio   core.Options
}

// testbedMachine is the evaluation platform with a per-node memory
// budget drawn around mem with the paper's variance, floored at a
// quarter of mem; seed drives the draws.
func testbedMachine(nodes int, mem int64, seed uint64) cluster.Config {
	cfg := cluster.TestbedConfig(nodes)
	cfg.MemPerNode = mem
	cfg.MemSigma = float64(sigmaBytes) / float64(mem)
	cfg.MemFloor = mem / 4
	cfg.Seed = seed
	return cfg
}

// testbedFS is the storage system with shared-interference jitter;
// seed drives the jitter stream.
func testbedFS(seed uint64) pfs.Config {
	cfg := pfs.DefaultConfig()
	cfg.JitterMean = 12e-3
	cfg.Seed = seed
	return cfg
}

// sweepOptions derives the MCCIO tunables the way the repository's
// experiment sweeps do: calibrated defaults, groups of about two
// nodes, Memmin a quarter of the nominal budget.
func sweepOptions(mc cluster.Config, fc pfs.Config, totalBytes, mem int64) core.Options {
	opts := core.DefaultOptions(mc, fc)
	groups := mc.Nodes / 2
	if groups < 1 {
		groups = 1
	}
	opts.Msggroup = totalBytes / int64(groups)
	opts.Memmin = mem / 4
	if opts.Memmin < 256<<10 {
		opts.Memmin = 256 << 10
	}
	return opts
}

// strategies returns the three collective strategies every sim
// workload runs, configured for the shape.
func strategies(sh shape) []iolib.Collective {
	return []iolib.Collective{
		collio.TwoPhase{CBBuffer: sh.mem},
		core.MCCIO{Opts: sh.mccio},
		twolayer.Strategy{CBBuffer: sh.mem},
	}
}

// specsFor expands shapes into the cycle: every strategy, write then
// read, on every shape.
func specsFor(shapes []shape) []simSpec {
	var specs []simSpec
	for _, sh := range shapes {
		for _, s := range strategies(sh) {
			for _, op := range []string{"write", "read"} {
				specs = append(specs, simSpec{
					key:     sh.name + "/" + s.Name() + "/" + op,
					strat:   s,
					op:      op,
					machine: sh.machine,
					fs:      sh.fs,
					wl:      sh.wl,
				})
			}
		}
	}
	return specs
}

// setupTimes is the host time one simulation spends building its
// inputs, per layer, in seconds.
type setupTimes struct {
	view, cluster, pfs, world float64
}

// simCounters are the layer counters one simulation leaves behind.
type simCounters struct {
	msgsIntra, msgsInter   int64
	bytesIntra, bytesInter int64
	transfers              int64
	membusBusy, nicBusy    float64
	bisectionBusy          float64
	pfsRequests            int64
	ostBusyMax             float64
	overcommit             int
}

func (c *simCounters) add(o simCounters) {
	c.msgsIntra += o.msgsIntra
	c.msgsInter += o.msgsInter
	c.bytesIntra += o.bytesIntra
	c.bytesInter += o.bytesInter
	c.transfers += o.transfers
	c.membusBusy += o.membusBusy
	c.nicBusy += o.nicBusy
	c.bisectionBusy += o.bisectionBusy
	c.pfsRequests += o.pfsRequests
	c.ostBusyMax += o.ostBusyMax
	c.overcommit += o.overcommit
}

// simRun is one simulation's outcome and host cost. setup is
// wall-clock, per layer; setupCPU and cpuS are process CPU seconds
// (every thread, the collector's included), the end-to-end metrics'
// clock.
type simRun struct {
	setup    setupTimes
	setupCPU float64 // CPU seconds building views, machine, FS and world
	cpuS     float64 // CPU seconds of the whole simulation, set-up included
	res      trace.Result
	counters simCounters
	digest   string
}

// runSim builds the machine, file system and world for sp from its
// public constructors, runs the collective on phantom payloads, and
// reads the layers' counters. tr, when non-nil, records the run's
// event trace.
func runSim(sp simSpec, tr *obs.Tracer) (simRun, error) {
	var out simRun
	c0 := cpuNow()
	t0 := time.Now()
	n := sp.wl.NumRanks()
	views := make([]datatype.List, n)
	for r := range views {
		views[r] = sp.wl.View(r)
	}
	t1 := time.Now()
	engine := simtime.NewEngine()
	machine, err := cluster.New(sp.machine)
	if err != nil {
		return out, err
	}
	t2 := time.Now()
	if tr != nil {
		tr.SetClock(engine.Now)
		machine.SetTracer(tr)
	}
	fs, err := pfs.New(sp.fs, machine)
	if err != nil {
		return out, err
	}
	t3 := time.Now()
	world, err := mpi.NewWorld(engine, machine, n)
	if err != nil {
		return out, err
	}
	file := iolib.Open(fs, "bench.dat")
	t4 := time.Now()
	c4 := cpuNow()

	world.Start(func(c *mpi.Comm) {
		view := views[c.Rank()]
		data := buffer.New(view.TotalBytes(), true)
		r := iolib.Run(sp.strat, sp.op, file, c, view, data, &trace.Metrics{})
		if c.Rank() == 0 {
			out.res = r
		}
	})
	if err := engine.Run(); err != nil {
		return out, fmt.Errorf("%s: %w", sp.key, err)
	}
	out.cpuS = cpuNow() - c0
	out.setupCPU = c4 - c0
	out.setup = setupTimes{
		view:    t1.Sub(t0).Seconds(),
		cluster: t2.Sub(t1).Seconds(),
		pfs:     t3.Sub(t2).Seconds(),
		world:   t4.Sub(t3).Seconds(),
	}
	out.counters = readCounters(machine, fs, world)
	out.digest = digestRun(sp.key, out.res, fs.Stats(), world.Traffic(), machine)
	if want := sp.wl.TotalBytes(); out.res.Bytes != want {
		return out, fmt.Errorf("%s: moved %d bytes, workload has %d", sp.key, out.res.Bytes, want)
	}
	return out, nil
}

// readCounters collects the per-layer counters of a finished run.
func readCounters(machine *cluster.Machine, fs *pfs.FS, world *mpi.World) simCounters {
	var c simCounters
	tr := world.Traffic()
	c.msgsIntra, c.msgsInter = tr.MsgsIntra, tr.MsgsInter
	c.bytesIntra, c.bytesInter = tr.BytesIntra, tr.BytesInter
	for i := 0; i < machine.NumNodes(); i++ {
		node := machine.Node(i)
		mb := node.MemBus.Stats()
		tx, rx := node.NICTx.Stats(), node.NICRx.Stats()
		c.membusBusy += mb.BusySeconds
		c.nicBusy += tx.BusySeconds + rx.BusySeconds
		c.transfers += mb.Transfers + tx.Transfers + rx.Transfers
		if node.HighWater() > node.Capacity {
			c.overcommit++
		}
	}
	bis, ion := machine.Bisection().Stats(), machine.IONet().Stats()
	c.bisectionBusy = bis.BusySeconds
	c.transfers += bis.Transfers + ion.Transfers
	st := fs.Stats()
	c.pfsRequests = st.Requests
	for _, b := range st.OSTBusy {
		if b > c.ostBusyMax {
			c.ostBusyMax = b
		}
	}
	return c
}

// digestRun hashes every simulated figure of a run: the result row
// (bandwidth inputs, rounds, aggregators, shuffle split, phase
// seconds), the file system's request and byte counts, MPI traffic,
// and the bytes each link layer carried. Floats are written in their
// shortest exact form, so any change in a simulated value changes the
// digest.
func digestRun(key string, res trace.Result, st pfs.Stats, tr mpi.TrafficStats, machine *cluster.Machine) string {
	var b strings.Builder
	f := func(v float64) { b.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); b.WriteByte(' ') }
	i := func(v int64) { b.WriteString(strconv.FormatInt(v, 10)); b.WriteByte(' ') }
	b.WriteString(key)
	b.WriteByte(' ')
	i(res.Bytes)
	f(res.Elapsed)
	for _, v := range []int{res.Rounds, res.Aggregators, res.Groups, res.Leaders, res.Remerges} {
		i(int64(v))
	}
	for _, v := range []int64{res.BytesIO, res.IORequests, res.BytesShuffleIntra, res.BytesShuffleInter} {
		i(v)
	}
	f(res.ExchangeSeconds)
	f(res.IOSeconds)
	for _, v := range res.AggBufferBytes {
		i(v)
	}
	b.WriteString("| ")
	for _, v := range []int64{st.Requests, st.BytesRead, st.BytesWritten} {
		i(v)
	}
	for _, v := range st.OSTBusy {
		f(v)
	}
	b.WriteString("| ")
	for _, v := range []int64{tr.BytesIntra, tr.BytesInter, tr.MsgsIntra, tr.MsgsInter} {
		i(v)
	}
	b.WriteString("| ")
	var membus, nic int64
	for n := 0; n < machine.NumNodes(); n++ {
		node := machine.Node(n)
		membus += node.MemBus.Stats().Bytes
		nic += node.NICTx.Stats().Bytes + node.NICRx.Stats().Bytes
	}
	for _, v := range []int64{membus, nic, machine.Bisection().Stats().Bytes, machine.IONet().Stats().Bytes} {
		i(v)
	}
	return digest([]byte(b.String()))
}

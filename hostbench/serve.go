package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/iolib"
	"repro/internal/pland"
	"repro/internal/stats"
	"repro/internal/twolayer"
	"repro/internal/workload"
)

// plan-serve traffic. The key set is four times the daemon's default
// plan cache, so Zipf-popular keys hit and the tail misses for
// capacity.
const (
	cacheEntries = 1024 // pland's default plan-cache capacity
	serveKeys    = 4 * cacheEntries
	serveZipfS   = 1.1
	// serveClients is one closed-loop client: two, on the host's two
	// cores, contend with the daemon for them, and a request's latency
	// then depends on whether the other client's overlaps it.
	serveClients = 1
	simEvery     = 250 // about one request in simEvery is a /v1/simulate
	simWindows   = 15  // one-second windows of serial /v1/simulate requests for sim_mb_per_s
	simKeys      = 6   // distinct simulate layouts: 3 strategies × 2 ops
	refKeys      = 32  // plan keys whose bodies form the recorded reference
	setupReps    = 5   // set-up repetitions; setup_s is their median
	serveNodes   = 8
	serveRanks   = 96
	simRanks     = 16
	warmLoadS    = 1 // untimed load before the timed part, seconds
)

// simStrategies are the /v1/simulate strategies, one per simulate key
// pair (write, read).
var simStrategies = []string{"mccio", "two-phase", "two-layer"}

// serveInputs are one seed's request bodies and the shapes behind them.
type serveInputs struct {
	plan     [][]byte
	sim      [][]byte
	simSpecs []simSpec
	popular  []int // popularity rank → plan key
	probe    []shape
}

// planShape is plan key k's platform and layout: IOR-style interleave
// of 4 segments over serveRanks ranks with a 64 KiB + k byte block, so
// every key fingerprints distinctly while all keys cost about the same
// to plan and to serve — the seed's popularity order then changes
// which keys are hot, not how expensive the hot set is.
func planShape(k int, seed uint64) shape {
	wl := workload.IOR{
		Ranks:     serveRanks,
		BlockSize: 64<<10 + int64(k),
		Segments:  4,
	}
	mc, fc := testbedMachine(serveNodes, 16*cluster.MiB, seed), testbedFS(seed)
	return shape{
		name: "plan/" + strconv.Itoa(k), machine: mc, fs: fc, wl: wl,
		mem: mc.MemPerNode, mccio: core.DefaultOptions(mc, fc),
	}
}

// requestOf is the wire form of a shape's layout.
func requestOf(sh shape, strategy string) pland.PlanRequest {
	ranks := make([][]pland.Extent, sh.wl.NumRanks())
	for r := range ranks {
		for _, s := range sh.wl.View(r) {
			ranks[r] = append(ranks[r], pland.Extent{Off: s.Off, Len: s.Len})
		}
	}
	return pland.PlanRequest{Cluster: sh.machine, FS: sh.fs, Strategy: strategy, Ranks: ranks}
}

// buildInputs generates every request body for seed and the Zipf
// popularity order of the plan keys.
func buildInputs(seed uint64) (*serveInputs, error) {
	in := &serveInputs{plan: make([][]byte, serveKeys)}
	for k := range in.plan {
		sh := planShape(k, seed)
		var err error
		if in.plan[k], err = json.Marshal(requestOf(sh, "")); err != nil {
			return nil, err
		}
		if k < 4 {
			in.probe = append(in.probe, sh)
		}
	}
	for i := 0; i < simKeys; i++ {
		strat, op := simStrategies[i/2], []string{"write", "read"}[i%2]
		wl := workload.IOR{Ranks: simRanks, BlockSize: 256 << 10, Segments: 4}
		// Even the memory floor holds the whole 16 MiB layout, so the
		// seed's memory draws cannot change the round count and with it
		// what a simulate request costs the host.
		mc, fc := testbedMachine(2, 64*cluster.MiB, seed), testbedFS(seed)
		body, err := json.Marshal(pland.SimRequest{
			PlanRequest: requestOf(shape{machine: mc, fs: fc, wl: wl}, strat), Op: op,
		})
		if err != nil {
			return nil, err
		}
		in.sim = append(in.sim, body)
		var s iolib.Collective
		switch strat {
		case "two-phase":
			s = collio.TwoPhase{CBBuffer: mc.MemPerNode}
		case "two-layer":
			s = twolayer.Strategy{CBBuffer: mc.MemPerNode}
		default:
			s = core.MCCIO{Opts: core.DefaultOptions(mc, fc)}
		}
		in.simSpecs = append(in.simSpecs, simSpec{
			key: "sim/" + strat + "/" + op, strat: s, op: op, machine: mc, fs: fc, wl: wl,
		})
	}
	in.popular = stats.NewRNG(seed).Perm(serveKeys)
	return in, nil
}

// daemon is an in-process pland server and the client that talks to it.
type daemon struct {
	srv    *pland.Server
	url    string
	done   chan error
	client *http.Client
}

// startDaemon builds pland with its default configuration on a
// loopback port, starts serving, and waits until /healthz answers.
func startDaemon() (*daemon, error) {
	srv, err := pland.New(pland.Config{})
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		url:  "http://" + srv.Addr(),
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
		}},
	}
	go func() { d.done <- srv.Serve() }()
	resp, err := d.client.Get(d.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("pland healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the daemon and waits for its serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	return err
}

// reply is one answered request.
type reply struct {
	status  int
	verdict string // X-Cache: hit, miss, coalesced; "" for simulate
	body    []byte
	latS    float64
}

func (d *daemon) post(path string, body []byte) (reply, error) {
	t0 := time.Now()
	resp, err := d.client.Post(d.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{
		status:  resp.StatusCode,
		verdict: resp.Header.Get("X-Cache"),
		body:    out,
		latS:    since(t0),
	}, nil
}

// bodyDigests remembers the first body hash served per key, so every
// later answer for the key — hit, miss after eviction, or coalesced —
// must be byte-identical.
type bodyDigests struct {
	mu   sync.Mutex
	seen map[string]string
}

func (b *bodyDigests) match(key string, body []byte) error {
	d := digest(body)
	b.mu.Lock()
	defer b.mu.Unlock()
	if want, ok := b.seen[key]; ok && want != d {
		return fmt.Errorf("%s: body %s differs from the earlier %s", key, d, want)
	}
	b.seen[key] = d
	return nil
}

// loadStats are the client-side observations of a timed load phase.
type loadStats struct {
	lats            []float64 // every answered request, seconds
	hit, miss, sim  []float64 // by verdict and endpoint
	coalesced, shed int
	lost            int // requests that got no answer
	wallS, cpuS     float64
	cost            hostCost
	windows         []window // the timed load's windows, at nominal host speed
}

// window is one timed load window's latency percentiles, in seconds,
// and its requests per CPU-second.
type window struct {
	p50, p99, rate float64
}

func (ls *loadStats) requests() int { return len(ls.lats) + ls.lost }

// runLoad drives the daemon with serveClients closed-loop clients for
// budget seconds. Each client draws from its own seeded stream: about
// one request in simEvery simulates one of the simulate layouts, the
// rest ask for a plan key drawn by Zipf popularity.
func runLoad(d *daemon, in *serveInputs, seed uint64, phase int, budget float64, digests *bodyDigests, rep *report) loadStats {
	zipf := stats.NewZipf(serveKeys, serveZipfS)
	results := make([]loadStats, serveClients)
	var failMu sync.Mutex
	var fails []error
	fail := func(err error) {
		failMu.Lock()
		fails = append(fails, err)
		failMu.Unlock()
	}
	c0 := cpuNow()
	start := time.Now()
	deadline := start.Add(time.Duration(budget * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ls := &results[c]
			rng := stats.NewRNG(seed*1_000_003 + uint64(phase*serveClients+c) + 1)
			for time.Now().Before(deadline) {
				path, key, body := "/v1/plan", "", []byte(nil)
				if rng.Intn(simEvery) == 0 {
					i := rng.Intn(simKeys)
					path, key, body = "/v1/simulate", in.simSpecs[i].key, in.sim[i]
				} else {
					k := in.popular[zipf.Sample(rng)]
					key, body = "plan/"+strconv.Itoa(k), in.plan[k]
				}
				r, err := d.post(path, body)
				if err != nil {
					ls.lost++
					fail(err)
					continue
				}
				if r.status != http.StatusOK {
					err = fmt.Errorf("%s %s: status %d: %s", path, key, r.status, bytes.TrimSpace(r.body))
				} else {
					err = digests.match(key, r.body)
				}
				ls.lats = append(ls.lats, r.latS)
				switch {
				case r.status == http.StatusTooManyRequests:
					ls.shed++
				case r.status != http.StatusOK:
					// Counted as a failure below.
				case path == "/v1/simulate":
					ls.sim = append(ls.sim, r.latS)
				case r.verdict == "hit":
					ls.hit = append(ls.hit, r.latS)
				case r.verdict == "coalesced":
					ls.coalesced++
				default:
					ls.miss = append(ls.miss, r.latS)
				}
				if err != nil {
					fail(err)
				}
			}
		}(c)
	}
	wg.Wait()
	var out loadStats
	out.wallS = since(start)
	out.cpuS = cpuNow() - c0
	for _, r := range results {
		out.merge(r)
	}
	rep.attempted += out.requests() - len(fails)
	for _, err := range fails {
		rep.checkErr(err)
	}
	return out
}

// merge adds o's observations to ls.
func (ls *loadStats) merge(o loadStats) {
	ls.lats = append(ls.lats, o.lats...)
	ls.hit = append(ls.hit, o.hit...)
	ls.miss = append(ls.miss, o.miss...)
	ls.sim = append(ls.sim, o.sim...)
	ls.coalesced += o.coalesced
	ls.shed += o.shed
	ls.lost += o.lost
	ls.wallS += o.wallS
	ls.cpuS += o.cpuS
}

// scale multiplies the latencies and the CPU time by f.
func (ls *loadStats) scale(f float64) {
	for _, xs := range [][]float64{ls.lats, ls.hit, ls.miss, ls.sim} {
		for i := range xs {
			xs[i] *= f
		}
	}
	ls.cpuS *= f
}

// runTimed is the timed load: windows of windowS seconds until budget
// seconds of load have run, each window's latencies and CPU time
// scaled to nominal host speed by the samples around it, and each
// window's latency percentiles and request rate kept. Wall time stays
// as measured.
func runTimed(d *daemon, in *serveInputs, seed uint64, budget float64, h *hostSpeed, digests *bodyDigests, rep *report) loadStats {
	m := startMeter()
	var out loadStats
	h.sample() // the speed before the first window
	for w := 0; w == 0 || out.wallS < budget; w++ {
		ls := runLoad(d, in, seed, 1000+w, min(windowS, budget), digests, rep)
		ls.scale(h.sample())
		lats := append([]float64(nil), ls.lats...)
		sort.Float64s(lats)
		out.windows = append(out.windows, window{
			p50:  percentile(lats, 50),
			p99:  percentile(lats, 99),
			rate: float64(ls.requests()) / ls.cpuS,
		})
		out.merge(ls)
	}
	out.cost = m.finish()
	return out
}

// serveSetup builds the inputs and starts the daemon setupReps times,
// keeping the last daemon, and returns the median set-up CPU seconds
// at nominal host speed.
func serveSetup(seed uint64, h *hostSpeed) (*serveInputs, *daemon, float64, error) {
	var in *serveInputs
	var d *daemon
	ts := make([]float64, setupReps)
	for i := range ts {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, 0, err
			}
		}
		in = nil
		runtime.GC() // every repetition starts from the same heap
		c0 := cpuNow()
		var err error
		if in, err = buildInputs(seed); err != nil {
			return nil, nil, 0, err
		}
		if d, err = startDaemon(); err != nil {
			return nil, nil, 0, err
		}
		ts[i] = (cpuNow() - c0) * h.sample()
	}
	return in, d, median(ts), nil
}

// warmResult is what the warm pass learned.
type warmResult struct {
	rows   []row              // the reference rows, in request order
	direct []simRun           // in-process runs of the simulate layouts
	phases map[string]float64 // obs metric → per-rank virtual seconds, summed over the simulate answers
}

// warmAndCheck runs before timing: it asks once, serially, for the
// reference keys and the most popular cache-capacity's worth of plan
// keys, and for every simulate layout, whose answers it checks against
// the same simulation run in process.
func warmAndCheck(d *daemon, in *serveInputs, digests *bodyDigests, rep *report) (warmResult, error) {
	w := warmResult{phases: map[string]float64{}}
	keys := make([]int, 0, refKeys+cacheEntries)
	for k := 0; k < refKeys; k++ {
		keys = append(keys, k)
	}
	keys = append(keys, in.popular[:cacheEntries]...)
	for i, k := range keys {
		r, err := d.post("/v1/plan", in.plan[k])
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("plan/%d: status %d", k, r.status)
		}
		if err == nil {
			key := "plan/" + strconv.Itoa(k)
			err = digests.match(key, r.body)
			if i < refKeys {
				w.rows = append(w.rows, row{key, digest(r.body)})
			}
		}
		rep.checkErr(err)
	}
	for i, sp := range in.simSpecs {
		want, err := runSim(sp, nil)
		if err != nil {
			return w, err
		}
		w.direct = append(w.direct, want)
		w.rows = append(w.rows, row{sp.key, want.digest})
		r, err := d.post("/v1/simulate", in.sim[i])
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("%s: status %d", sp.key, r.status)
		}
		var got pland.SimResponse
		if err == nil {
			err = json.Unmarshal(r.body, &got)
		}
		if err == nil && (got.Bytes != want.res.Bytes || got.Elapsed != want.res.Elapsed ||
			got.Rounds != want.res.Rounds || got.Aggregators != want.res.Aggregators) {
			err = fmt.Errorf("%s: served %d B in %gs, %d rounds, %d aggregators; in process %d B in %gs, %d rounds, %d aggregators",
				sp.key, got.Bytes, got.Elapsed, got.Rounds, got.Aggregators,
				want.res.Bytes, want.res.Elapsed, want.res.Rounds, want.res.Aggregators)
		}
		if err == nil {
			err = digests.match(sp.key, r.body)
		}
		rep.checkErr(err)
		for _, p := range obsPhases {
			w.phases[p.metric] += got.Phases[string(p.phase)] / float64(sp.wl.NumRanks())
		}
	}
	return w, nil
}

// simulateSerial sends every simulate layout in turn, whole rounds,
// from one client with nothing else in flight, so the process CPU time
// around the requests is their host cost. It does so for simWindows
// windows of windowS seconds and returns the median over the windows
// of the simulated MB per CPU-second at nominal host speed.
func simulateSerial(d *daemon, in *serveInputs, h *hostSpeed, digests *bodyDigests, rep *report) float64 {
	runtime.GC() // leave the warm pass's garbage out of the requests' cost
	h.sample()   // the speed before the first window
	rates := make([]float64, simWindows)
	for w := range rates {
		var mb float64
		c0, t0 := cpuNow(), time.Now()
		for since(t0) < windowS {
			for i, sp := range in.simSpecs {
				r, err := d.post("/v1/simulate", in.sim[i])
				if err == nil && r.status != http.StatusOK {
					err = fmt.Errorf("%s: status %d", sp.key, r.status)
				}
				if err == nil {
					err = digests.match(sp.key, r.body)
				}
				rep.checkErr(err)
				mb += float64(sp.wl.TotalBytes()) / 1e6
			}
		}
		rates[w] = mb / ((cpuNow() - c0) * h.sample())
	}
	return median(rates)
}

func runServeWorkload(o options, refs references, rep *report) error {
	h := newHostSpeed()
	in, d, setupS, err := serveSetup(o.seed, h)
	if err != nil {
		return err
	}
	defer d.stop()
	digests := &bodyDigests{seen: map[string]string{}}
	warm, err := warmAndCheck(d, in, digests, rep)
	if err != nil {
		return err
	}
	if o.record {
		if rep.failed > 0 {
			return fmt.Errorf("not recording plan-serve seed %d: %d checks failed", o.seed, rep.failed)
		}
		return recordReference("plan-serve", o.seed, warm.rows)
	}
	rc := newRowChecker(refs, "plan-serve", o.seed)
	if !rc.hasRecorded() {
		fmt.Fprintf(os.Stderr, "hostbench: no recorded reference for plan-serve seed %d; checking repetitions against the first\n", o.seed)
	}
	for _, r := range warm.rows {
		rep.checkErr(rc.match(r.key, r.digest))
	}
	sp := in.simSpecs[0]
	small := shape{name: "verify", machine: sp.machine, fs: sp.fs, wl: sp.wl,
		mem: sp.machine.MemPerNode, mccio: core.DefaultOptions(sp.machine, sp.fs)}
	for _, spec := range verifySpecs([]shape{small}) {
		_, err := bench.RunOnce(spec)
		rep.checkErr(err)
	}

	simMBps := simulateSerial(d, in, h, digests, rep)
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	// Let the cache reach its steady state under the Zipf mix first.
	runLoad(d, in, o.seed, 0, warmLoadS, digests, rep)
	plain := runTimed(d, in, o.seed, budget, h, digests, rep)
	h.print()
	serveEndToEnd(plain, setupS, simMBps, rep)
	if !o.trace {
		return nil
	}
	serveLayers(plain, warm, in, rep)
	capt, err := startCapture()
	if err != nil {
		return err
	}
	// The untraced load's collection at its start and heap sampling, so
	// that the overhead is the tracing's alone.
	m := startMeter()
	traced := runLoad(d, in, o.seed, 2, budget, digests, rep)
	m.finish()
	hp, err := capt.stop()
	if err != nil {
		return err
	}
	setProfile(rep, hp, traced.requests())
	perReq := func(ls loadStats) float64 { return ls.wallS / float64(ls.requests()) }
	rep.set("trace.overhead_pct", 100*(perReq(traced)/perReq(plain)-1), "%")
	return nil
}

// setPland sets the daemon's per-layer metrics from the client side:
// median latency by cache verdict and endpoint, hit rate over plan
// lookups, and the coalesced and shed counts.
func setPland(rep *report, ls loadStats) {
	p50 := func(xs []float64) float64 {
		sort.Float64s(xs)
		return 1e3 * percentile(xs, 50)
	}
	rep.set("pland.hit_p50_ms", p50(ls.hit), "ms")
	rep.set("pland.miss_p50_ms", p50(ls.miss), "ms")
	rep.set("pland.sim_p50_ms", p50(ls.sim), "ms")
	lookups := len(ls.hit) + len(ls.miss) + ls.coalesced
	rep.set("pland.hit_rate", float64(len(ls.hit)+ls.coalesced)/float64(max(1, lookups)), "ratio")
	rep.set("pland.coalesced", float64(ls.coalesced), "count")
	rep.set("pland.shed", float64(ls.shed), "count")
}

// serveEndToEnd sets plan-serve's end-to-end metrics. Latencies are
// wall-clock, as the client sees them; throughput is requests per
// process CPU-second, the serving cost on the host, which unlike a
// closed loop's wall-clock rate does not mirror the latency. Both are
// at nominal host speed (calib.go), and each is the median over the
// one-second windows, so a few seconds in which the host ran slower
// than its speed samples show leave it unmoved.
func serveEndToEnd(ls loadStats, setupS, simMBps float64, rep *report) {
	var p50s, p99s, rates []float64
	for _, w := range ls.windows {
		p50s = append(p50s, w.p50)
		p99s = append(p99s, w.p99)
		rates = append(rates, w.rate)
	}
	n := float64(ls.requests())
	rep.set("sim_mb_per_s", simMBps, "MB/s")
	rep.set("req_per_s", median(rates), "1/s")
	rep.set("lat_p50_ms", 1e3*median(p50s), "ms")
	rep.set("lat_p99_ms", 1e3*median(p99s), "ms")
	rep.set("host_allocs", float64(ls.cost.allocs)/n, "allocs/op")
	rep.set("host_alloc_mb", float64(ls.cost.allocBytes)/1e6/n, "MB/op")
	rep.set("host_mem_mb", float64(ls.cost.peakHeap)/1e6, "MB")
	rep.set("setup_s", setupS, "s")
	fmt.Printf("timed: %d requests (%d plan hits, %d misses, %d coalesced, %d simulate, %d shed) in %.1fs wall, %.1fs CPU at nominal speed; latency samples: %d in %d windows\n",
		ls.requests(), len(ls.hit), len(ls.miss), ls.coalesced, len(ls.sim), ls.shed, ls.wallS, ls.cpuS, len(ls.lats), len(ls.windows))
}

// serveLayers sets plan-serve's per-layer metrics: the latency split by
// cache verdict and endpoint, the simulate layouts' counters and
// set-up costs from their in-process runs, and the layer probes on the
// simulate world size and the first plan keys.
func serveLayers(ls loadStats, warm warmResult, in *serveInputs, rep *report) {
	setPland(rep, ls)
	var k simCounters
	var rounds, intra, inter float64
	var st setupTimes
	for _, r := range warm.direct {
		k.add(r.counters)
		rounds += float64(r.res.Rounds)
		intra += float64(r.res.BytesShuffleIntra) / 1e6
		inter += float64(r.res.BytesShuffleInter) / 1e6
		st.view += r.setup.view
		st.cluster += r.setup.cluster
		st.pfs += r.setup.pfs
		st.world += r.setup.world
	}
	setCounters(rep, k, rounds, intra, inter)
	rep.set("workload.view_ms", 1e3*st.view, "ms")
	rep.set("cluster.new_ms", 1e3*st.cluster, "ms")
	rep.set("pfs.new_ms", 1e3*st.pfs, "ms")
	rep.set("mpi.new_world_ms", 1e3*st.world, "ms")

	ag, err := timeMedian(func() (float64, error) { return allgatherOnce(serveRanks, serveNodes) })
	rep.checkErr(err)
	rep.set("mpi.allgather_ms", 1e3*ag, "ms")
	var pp planProbe
	for _, sh := range in.probe {
		p, err := probePlanners(sh)
		rep.checkErr(err)
		pp.add(p)
	}
	setPlanProbe(rep, pp)
	for _, p := range obsPhases {
		rep.set(p.metric, warm.phases[p.metric], "s")
	}
}

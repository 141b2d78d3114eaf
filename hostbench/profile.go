package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/prof"
)

// selfPackages are the layers whose self-time share and allocation
// volume the traced run reports, by package name under internal/.
var selfPackages = []string{
	"simtime", "mpi", "resource", "pfs", "datatype",
	"collio", "core", "twolayer", "iolib", "pland",
}

// cumEntries names each layer entry point whose inclusive CPU share the
// traced run reports: a sample counts once if any listed function is
// anywhere on its stack.
var cumEntries = []struct {
	metric string
	funcs  []string
}{
	{"mpi.allgather", []string{"repro/internal/mpi.(*Comm).Allgather"}},
	{"collio.build_plan", []string{
		"repro/internal/collio.TwoPhase.BuildPlan",
		"repro/internal/twolayer.Strategy.BuildPlan",
	}},
	{"collio.execute", []string{
		"repro/internal/collio.ExecuteWrite",
		"repro/internal/collio.ExecuteRead",
	}},
	{"core.run", []string{"repro/internal/core.MCCIO.run"}},
	{"simtime.park", []string{"repro/internal/simtime.(*Proc).park"}},
	{"resource.transfer", []string{
		"repro/internal/resource.(*Link).Transfer",
		"repro/internal/resource.(*Link).Reserve",
		"repro/internal/resource.Path.Transfer",
		"repro/internal/resource.Path.Reserve",
		"repro/internal/resource.Path.ReserveTail",
		"repro/internal/resource.Path.ReserveHead",
	}},
	{"pland.handler", []string{
		"repro/internal/pland.(*Server).handlePlan",
		"repro/internal/pland.(*Server).handleSimulate",
		"repro/internal/pland.buildPlanJSON",
		"repro/internal/pland.runSimulation",
	}},
}

// runtimeShares split the runtime's self time: collection, goroutine
// scheduling (every simulated process is a goroutine), and the rest
// (allocation, maps, copying).
var runtimeShares = []string{"runtime.sched", "runtime.gc", "runtime.other"}

// Runtime functions whose presence on a stack marks a runtime-leaf
// sample as garbage collection or as goroutine scheduling.
var (
	gcFuncs = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.GC",
		"runtime.sweepone", "runtime.markrootSpans",
	}
	schedFuncs = []string{
		"runtime.schedule", "runtime.park_m", "runtime.gopark", "runtime.goready",
		"runtime.ready", "runtime.mcall", "runtime.findRunnable", "runtime.goexit0",
		"runtime.newproc", "runtime.wakep", "runtime.chansend", "runtime.chanrecv",
		"runtime.selectgo", "runtime.notewakeup", "runtime.notesleep",
	}
)

// pkgOf returns a function's package name under internal/ ("mpi" for
// "repro/internal/mpi.(*Comm).Allgather"), "runtime" for the runtime,
// and "" otherwise.
func pkgOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") {
		return "runtime"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// capture is a CPU profile plus an allocation-profile baseline taken
// around the traced part of a run.
type capture struct {
	cpu    bytes.Buffer
	allocs *prof.Profile
}

func startCapture() (*capture, error) {
	c := &capture{}
	var err error
	if c.allocs, err = allocProfile(); err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(&c.cpu); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return c, nil
}

func allocProfile() (*prof.Profile, error) {
	runtime.GC() // make the allocation profile current
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("allocs profile: %w", err)
	}
	return prof.Parse(&buf)
}

// hostProfile is the decoded traced-run profile.
type hostProfile struct {
	cumPct  map[string]float64 // entry metric → % of CPU samples
	selfPct map[string]float64 // package (or runtime.sched/gc) → % of CPU samples
	allocMB map[string]float64 // package → MB allocated during the capture
	cpuS    float64
}

// stop ends the capture and decodes it.
func (c *capture) stop() (*hostProfile, error) {
	pprof.StopCPUProfile()
	after, err := allocProfile()
	if err != nil {
		return nil, err
	}
	cp, err := prof.Parse(&c.cpu)
	if err != nil {
		return nil, fmt.Errorf("decode cpu profile: %w", err)
	}
	hp := &hostProfile{
		cumPct:  map[string]float64{},
		selfPct: map[string]float64{},
		allocMB: map[string]float64{},
	}
	vi := cp.ValueIndex("cpu")
	if vi < 0 {
		return nil, fmt.Errorf("cpu profile has no cpu samples")
	}
	var total int64
	cum := map[string]int64{}
	self := map[string]int64{}
	for _, s := range cp.Samples {
		v := s.Values[vi]
		total += v
		funcs := stackFuncs(cp, s)
		if len(funcs) == 0 {
			continue
		}
		for _, e := range cumEntries {
			if anyOf(funcs, e.funcs) {
				cum[e.metric] += v
			}
		}
		switch pkg := pkgOf(funcs[0]); {
		case pkg == "runtime" && anyOf(funcs, gcFuncs):
			self["runtime.gc"] += v
		case pkg == "runtime" && anyOf(funcs, schedFuncs):
			self["runtime.sched"] += v
		case pkg == "runtime":
			self["runtime.other"] += v
		case pkg != "":
			self[pkg] += v
		}
	}
	hp.cpuS = float64(total) / 1e9
	pct := func(v int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(v) / float64(total)
	}
	for _, e := range cumEntries {
		hp.cumPct[e.metric] = pct(cum[e.metric])
	}
	for _, p := range append(append([]string{}, selfPackages...), runtimeShares...) {
		hp.selfPct[p] = pct(self[p])
	}
	before, now := allocByPackage(c.allocs), allocByPackage(after)
	for _, p := range selfPackages {
		hp.allocMB[p] = float64(now[p]-before[p]) / 1e6
	}
	return hp, nil
}

// stackFuncs lists a sample's functions, leaf first, inlined callees
// before their callers.
func stackFuncs(p *prof.Profile, s prof.Sample) []string {
	var out []string
	for _, loc := range s.Locations {
		for _, fn := range p.LocationFuncs[loc] {
			out = append(out, p.Functions[fn].Name)
		}
	}
	return out
}

func anyOf(stack, funcs []string) bool {
	for _, f := range stack {
		for _, want := range funcs {
			if f == want {
				return true
			}
		}
	}
	return false
}

// allocByPackage sums allocated bytes by the innermost frame that
// belongs to a reported package: the layer whose code asked for the
// memory.
func allocByPackage(p *prof.Profile) map[string]int64 {
	out := map[string]int64{}
	vi := p.ValueIndex("alloc_space")
	if vi < 0 {
		return out
	}
	for _, s := range p.Samples {
		for _, fn := range stackFuncs(p, s) {
			if pkg := pkgOf(fn); pkg != "" && pkg != "runtime" {
				out[pkg] += s.Values[vi]
				break
			}
		}
	}
	return out
}

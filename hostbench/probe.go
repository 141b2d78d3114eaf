package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/simtime"
	"repro/internal/twolayer"
)

// probeReps is how many timed repetitions each layer probe takes after
// one warm-up call; the probe reports their median.
const probeReps = 5

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// timeMedian calls fn once to warm up, then probeReps more times, and
// returns the median of the durations fn reports, in seconds.
func timeMedian(fn func() (float64, error)) (float64, error) {
	if _, err := fn(); err != nil {
		return 0, err
	}
	ts := make([]float64, probeReps)
	for i := range ts {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ts[i] = d
	}
	return median(ts), nil
}

// allgatherOnce runs an Allgather-only world of ranks processes on
// nodes testbed nodes and returns the host seconds Engine.Run took.
// Every rank contributes its rank number; the gathered vector is
// checked on every rank.
func allgatherOnce(ranks, nodes int) (float64, error) {
	engine := simtime.NewEngine()
	machine, err := cluster.New(testbedMachine(nodes, 8*cluster.MiB, 1))
	if err != nil {
		return 0, err
	}
	world, err := mpi.NewWorld(engine, machine, ranks)
	if err != nil {
		return 0, err
	}
	bad := 0
	world.Start(func(c *mpi.Comm) {
		got := c.Allgather(int64(c.Rank()), 8)
		for i, v := range got {
			if v.(int64) != int64(i) {
				bad++
			}
		}
	})
	t0 := time.Now()
	if err := engine.Run(); err != nil {
		return 0, err
	}
	d := time.Since(t0).Seconds()
	if bad != 0 {
		return 0, fmt.Errorf("allgather over %d ranks: %d wrong entries", ranks, bad)
	}
	return d, nil
}

// planProbe is the planner-side probe result for one shape.
type planProbe struct {
	planFromMetaS, inspectS         float64
	groups, domains, remerges, aggs int
	leaders                         int
}

func (p *planProbe) add(o planProbe) {
	p.planFromMetaS += o.planFromMetaS
	p.inspectS += o.inspectS
	p.groups += o.groups
	p.domains += o.domains
	p.remerges += o.remerges
	p.aggs += o.aggs
	p.leaders += o.leaders
}

// probePlanners times the comm-free planners on a shape's views:
// collio.TwoPhase.PlanFromMeta, core.MCCIO.Inspect, and the two-layer
// leader election through twolayer.Strategy.PlanFromMeta, and reads
// the plans' sizes.
func probePlanners(sh shape) (planProbe, error) {
	var out planProbe
	machine, err := cluster.New(sh.machine)
	if err != nil {
		return out, err
	}
	n := sh.wl.NumRanks()
	views := make([]datatype.List, n)
	exts := make([]collio.Ext, n)
	nodeOf := make([]int, n)
	avail := make([]int64, n)
	for r := range views {
		views[r] = sh.wl.View(r)
		lo, hi := views[r].Extent()
		exts[r] = collio.Ext{Lo: lo, Hi: hi}
		nodeOf[r] = machine.NodeOfRank(r)
		avail[r] = machine.Node(nodeOf[r]).Available()
	}
	tp := collio.TwoPhase{CBBuffer: sh.mem}
	var plan *collio.Plan
	out.planFromMetaS, err = timeMedian(func() (float64, error) {
		t0 := time.Now()
		plan = tp.PlanFromMeta(exts, nodeOf, avail)
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return out, err
	}
	if err := plan.Validate(n); err != nil {
		return out, fmt.Errorf("%s: two-phase plan: %w", sh.name, err)
	}
	mc := core.MCCIO{Opts: sh.mccio}
	var ir *core.InspectResult
	out.inspectS, err = timeMedian(func() (float64, error) {
		t0 := time.Now()
		var err error
		ir, err = mc.Inspect(machine, views)
		return time.Since(t0).Seconds(), err
	})
	if err != nil {
		return out, fmt.Errorf("%s: inspect: %w", sh.name, err)
	}
	out.groups = len(ir.Groups)
	for _, gp := range ir.Plans {
		out.domains += len(gp.Placements)
		out.remerges += gp.Remerges
		hosts := map[int]bool{}
		for _, pl := range gp.Placements {
			hosts[pl.Agg] = true
		}
		out.aggs += len(hosts)
	}
	_, el := twolayer.Strategy{CBBuffer: sh.mem}.PlanFromMeta(exts, nodeOf, avail)
	if el != nil {
		out.leaders = len(el.Leaders)
	}
	return out, nil
}

// verifySpecs are small real-byte runs: every strategy and operation
// on each of the workload's verification shapes.
func verifySpecs(shapes []shape) []bench.Spec {
	var out []bench.Spec
	for _, sp := range specsFor(shapes) {
		out = append(out, bench.Spec{
			Strategy: sp.strat, Op: sp.op, Machine: sp.machine, FS: sp.fs,
			Workload: sp.wl, Verify: true,
		})
	}
	return out
}

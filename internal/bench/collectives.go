package bench

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExtCollectives measures broadcast and allreduce completion times
// across node counts, quiet and under full memory contention on every
// node. The paper explicitly scopes collectives out (§2.1); this
// extension shows its point-to-point findings compose: a collective
// built on the studied primitives inherits their contention behaviour
// on every hop.
func ExtCollectives(env Env) *trace.Table {
	t := trace.NewTable("EXT — collectives under memory contention (built on the studied point-to-point layer)",
		"op", "nodes", "size_B", "quiet_us", "contended_us", "slowdown")
	const size = 1 << 20
	type collCell struct {
		Op            string
		Nodes         int
		Quiet, Loaded sim.Duration
	}
	var pts []Point
	for _, op := range []string{"bcast", "allreduce"} {
		for _, nodes := range []int{2, 4, 8} {
			op, nodes := op, nodes
			pts = append(pts, Point{
				Key: fmt.Sprintf("collectives/op=%s/nodes=%d/size=%d", op, nodes, size),
				Fn: func(env Env) any {
					return collCell{
						Op: op, Nodes: nodes,
						Quiet:  runCollective(env, op, nodes, size, 0),
						Loaded: runCollective(env, op, nodes, size, env.Spec.Cores()-1),
					}
				},
			})
		}
	}
	for _, cell := range RunPointsAs[collCell](env, pts) {
		slow := 0.0
		if cell.Quiet > 0 {
			slow = cell.Loaded.Seconds() / cell.Quiet.Seconds()
		}
		t.Add(cell.Op, cell.Nodes, size, cell.Quiet.Micros(), cell.Loaded.Micros(), slow)
	}
	return t
}

// runCollective times one collective over `nodes` ranks, with
// `computeCores` STREAM cores per node running beside it.
func runCollective(env Env, op string, nodes int, size int64, computeCores int) sim.Duration {
	c := machine.NewCluster(env.Spec, nodes, env.Seed)
	env.track(c)
	w := mpi.NewWorld(c, net.New(c))
	stop := false
	for _, node := range c.Nodes {
		node := node
		for _, core := range computeCoresList(env, computeCores, w.Rank(node.ID).CommCore) {
			core := core
			c.K.Spawn("stream", func(p *sim.Proc) {
				kernels.LoopWhile(p, node, core,
					kernels.StreamTriad(kernels.DefaultStreamElems, env.Spec.NIC.NUMA),
					func() bool { return !stop })
			})
		}
	}
	var finish sim.Time
	remaining := nodes
	for i := 0; i < nodes; i++ {
		r := w.Rank(i)
		c.K.Spawn(fmt.Sprintf("coll.%d", i), func(p *sim.Proc) {
			// Let contention reach steady state, then synchronise.
			p.Sleep(sim.Duration(2 * sim.Millisecond))
			buf := r.Node.Alloc(size, env.Spec.NIC.NUMA)
			switch op {
			case "bcast":
				r.Bcast(p, 0, 1, buf, size)
			case "allreduce":
				r.Allreduce(p, 1, buf, size)
			default:
				panic("bench: unknown collective " + op)
			}
			if p.Now() > finish {
				finish = p.Now()
			}
			remaining--
			if remaining == 0 {
				stop = true
			}
		})
	}
	c.K.Run()
	return finish.Sub(sim.Time(2 * sim.Millisecond))
}

// computeCoresList mirrors computeCores but tolerates zero.
func computeCoresList(env Env, n, commCore int) []int {
	if n <= 0 {
		return nil
	}
	return computeCores(env.Spec, n, commCore)
}

package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/obs"
	"hls/internal/topology"
	"hls/internal/wire"
)

// worldTimeout turns a deadlocked world into an error well inside the
// driver's per-run limit instead of a hang.
const worldTimeout = 100 * time.Second

// cluster is one workload deployment: one world, or two worlds of one
// process joined by loopback TCP, plus whatever rides on them.
type cluster struct {
	worlds []*mpi.World
	ranks  int
	reg    *hls.Registry     // hls_mesh_update only
	tab    *hls.Var[float64] // hls_mesh_update only
	tracer *obs.Tracer       // pingpong_inproc_64B_traced only

	singles  atomic.Int64 // hls_mesh_update: single blocks executed, summed over tasks
	failed   atomic.Int64 // ops answered wrongly, and end-of-segment checks missed
	mu       sync.Mutex
	failures []string // the first few, for the report
}

// failf counts one failed op (or one missed end-of-run check) and keeps
// the first few messages.
func (c *cluster) failf(format string, args ...any) {
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// run executes body on every rank of every world and waits for all of
// them. World.Run closes a distributed world's transport on return.
func (c *cluster) run(body func(*mpi.Task) error) error {
	errs := make([]error, len(c.worlds))
	var wg sync.WaitGroup
	for i, w := range c.worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(body); err != nil {
				errs[i] = fmt.Errorf("world %d: %w", i, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// newInproc builds a single-world cluster; cfg.NumTasks is the rank count.
func newInproc(cfg mpi.Config) (*cluster, error) {
	cfg.Timeout = worldTimeout
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	return &cluster{worlds: []*mpi.World{w}, ranks: cfg.NumTasks}, nil
}

// newWirePair builds two worlds of perNode ranks each, joined by loopback
// TCP — the framed-socket path two processes on two machines take, minus
// the physical link. cfg carries the placement and collective mode;
// batchWindow > 0 turns wire batching on.
func newWirePair(perNode int, cfg mpi.Config, batchWindow time.Duration) (*cluster, error) {
	const nodes = 2
	m, err := topology.New(topology.Spec{
		Name: "benchmark", Nodes: nodes, SocketsPerNode: 1,
		CoresPerSocket: perNode, ThreadsPerCore: 1,
	})
	if err != nil {
		return nil, err
	}
	lns, addrs, err := loopbackListeners(nodes)
	if err != nil {
		return nil, err
	}
	c := &cluster{ranks: nodes * perNode}
	cfg.NumTasks, cfg.Machine, cfg.Timeout = c.ranks, m, worldTimeout
	for self, ln := range lns {
		tr, err := wire.NewTCP(wire.Config{Addrs: addrs, Self: self, WorldKey: 1, BatchWindow: batchWindow}, ln)
		if err != nil {
			return nil, err
		}
		cfg.Wire = &mpi.WireConfig{Transport: tr}
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			return nil, err
		}
		c.worlds = append(c.worlds, w)
	}
	return c, nil
}

// loopbackListeners opens n listeners on free loopback ports and returns
// them with their addresses, the host list of an n-node transport.
func loopbackListeners(n int) (lns []net.Listener, addrs []string, err error) {
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range lns {
				open.Close()
			}
			return nil, nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return lns, addrs, nil
}

// gate is the benchmark's own phase barrier over all ranks of a cluster.
// It is built on sync, not on the runtime under test, so aligning the
// phases of a segment adds nothing to the counters being read, and the
// last arriver's callback runs while every rank is outside the runtime.
type gate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     int
}

func newGate(n int) *gate {
	g := &gate{n: n}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// wait blocks until all n ranks have called it; the last one runs last
// (which may be nil) before any is released.
func (g *gate) wait(last func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.waiting++
	if g.waiting == g.n {
		if last != nil {
			last()
		}
		g.waiting = 0
		g.gen++
		g.cond.Broadcast()
		return
	}
	for gen := g.gen; gen == g.gen; {
		g.cond.Wait()
	}
}

package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"hls/internal/mpi"
)

// A run is split into segments. Each segment builds fresh worlds, warms
// them up with a fixed op count, then times a closed loop with one
// time.Now() per op on rank 0. A metric's value is the median of its
// per-segment values: un-segmented runs of several seconds spread up to
// 17% on a 2-core box (one slow stretch skews the whole run); the median
// over ten one-second segments of fresh worlds is far steadier.

// maxTimedOps caps the timed ops of one segment: the per-op sample buffer
// is allocated once, before any heap baseline is read.
const maxTimedOps = 1 << 22

// maxTracedOps caps a segment of the traced run, so that one span file
// stays in the megabytes.
const maxTracedOps = 20000

// plan sizes one segment.
type plan struct {
	warm   int           // warm-up ops (fixed per workload; part of setup_s)
	ops    int           // timed ops; 0 sizes the phase by time instead
	target time.Duration // length of the timed phase when ops == 0
	maxOps int           // cap on a time-sized phase
	traced bool          // record spans with the benchmark's recorder
}

// Indices into counters: everything the per-layer counts come from.
const (
	cMsgs = iota
	cRendezvous
	cDirect
	cPackElisions
	cSharedColl
	cTwoLevel
	cMatchProbes
	cPoolHits
	cPoolMisses
	cPoolOutstanding
	cFrames
	cWireBytes
	cBatches
	cBatchedFrames
	cReconnects
	cMallocs
	cGCCycles
	cGCPauseNs
	cTraceEvents // obs recorder events emitted (held + overwritten)
	cTraceDrops
	numCounters
)

// counters is one reading of the runtime, transport, Go-runtime and
// tracer counters, summed over the cluster's worlds.
type counters [numCounters]int64

func readCounters(c *cluster) counters {
	var k counters
	for _, w := range c.worlds {
		s := w.Stats()
		k[cMsgs] += s.Messages
		k[cRendezvous] += s.Rendezvous
		k[cDirect] += s.DirectDeliveries
		k[cPackElisions] += s.PackElisions
		k[cSharedColl] += s.SharedCollectives
		k[cTwoLevel] += s.TwoLevelCollectives
		k[cMatchProbes] += s.MatchProbes
		k[cPoolHits] += s.EagerPoolHits
		k[cPoolMisses] += s.EagerPoolMisses
		k[cPoolOutstanding] += s.EagerPoolOutstanding
		if t, ok := w.WireStats(); ok {
			k[cFrames] += int64(t.FramesSent)
			k[cWireBytes] += int64(t.BytesSent)
			k[cBatches] += int64(t.BatchesSent)
			k[cBatchedFrames] += int64(t.BatchedFrames)
			k[cReconnects] += int64(t.Reconnects)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k[cMallocs], k[cGCCycles], k[cGCPauseNs] = int64(ms.Mallocs), int64(ms.NumGC), int64(ms.PauseTotalNs)
	if c.tracer != nil {
		k[cTraceDrops] = c.tracer.Dropped()
		k[cTraceEvents] = int64(c.tracer.Recorder().Len()) + k[cTraceDrops]
	}
	return k
}

// plus returns a + sign*b, element by element.
func (a counters) plus(sign int64, b counters) counters {
	for i := range a {
		a[i] += sign * b[i]
	}
	return a
}

// segment is what one segment measured.
type segment struct {
	ops        int           // timed ops
	executed   int           // ops run and checked, warm-up included
	setup      time.Duration // segment start to first timed op
	wall       time.Duration // rank 0's first timed op start to its last op end
	p50us      float64       // median op time on rank 0
	tailsUs    []float64     // op time at each of tailCandidates
	liveHeapMB float64       // heap growth held while the worlds are alive, floor 1.0
	counts     counters
	failed     int64
	failures   []string

	hlsInstances int
	hlsSharedMB  float64

	spans [][]span // traced segments: one buffer per rank
}

// runSegment builds the workload's deployment, runs one segment on it and
// checks every answer. durs is the caller's per-op sample buffer.
func runSegment(w *workload, in *inputs, p plan, durs []uint32) (*segment, error) {
	heap0 := liveHeap()
	t0 := time.Now()
	c, err := w.build(in)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	seg := &segment{}
	g := newGate(c.ranks)
	var (
		n       int // timed ops, fixed by the last rank to finish warming up
		warmDur time.Duration
		before  counters
		traces  = make([]*rankTrace, c.ranks)
	)
	err = c.run(func(tk *mpi.Task) error {
		r := tk.Rank()
		var tr *rankTrace
		if p.traced {
			tr = newRankTrace(t0, 1<<16)
			traces[r] = tr
		}
		body := w.rank(c, tk, in, tr)
		var tw time.Time
		for i := 0; i < p.warm; i++ {
			if i == p.warm/2 {
				tw = time.Now() // the first half is cold: dials, pool growth
			}
			tr.beginOp(i)
			body.op(i)
			tr.endOp()
		}
		if r == 0 {
			warmDur = time.Since(tw)
		}
		if body.warmDone != nil {
			body.warmDone()
		}
		tr.reset()
		g.wait(func() {
			if n = p.ops; n == 0 {
				// Size the timed phase from the rate of the warm-up's second
				// half. The count differs a little from run to run;
				// everything reported is per op or a percentile, so that
				// does not show.
				n = int(float64(p.warm-p.warm/2) * float64(p.target) / float64(warmDur))
				n = min(max(n, 1), p.maxOps)
			}
			before = readCounters(c)
			seg.setup = time.Since(t0)
		})
		start := time.Now()
		prev := start
		for i := 0; i < n; i++ {
			tr.beginOp(p.warm + i)
			body.op(p.warm + i)
			tr.endOp()
			if r == 0 {
				now := time.Now()
				durs[i] = uint32(min(now.Sub(prev), 1<<32-1))
				prev = now
			}
		}
		if r == 0 {
			seg.wall = prev.Sub(start)
		}
		g.wait(func() {
			seg.counts = readCounters(c).plus(-1, before)
			// The worlds, their pools and the HLS tables are all still
			// reachable here: this is the footprint a running job holds.
			seg.liveHeapMB = max(1.0, (float64(liveHeap())-float64(heap0))/(1<<20))
		})
		if body.done != nil {
			body.done()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	seg.ops, seg.executed = n, p.warm+n
	meshSinglesCheck(c, seg.executed)
	final := readCounters(c)
	if out := final[cPoolOutstanding]; out != 0 {
		c.failf("%d pooled eager buffers still outstanding after the run", out)
	}
	if rc := final[cReconnects]; rc != 0 {
		c.failf("%d wire reconnects on a fault-free loopback", rc)
	}
	if c.reg != nil {
		for _, v := range c.reg.Report() {
			seg.hlsInstances += v.Instances
			seg.hlsSharedMB += float64(int64(v.Instances)*v.BytesPerInstance) / (1 << 20)
		}
	}
	seg.failed, seg.failures = c.failed.Load(), c.failures

	d := durs[:n]
	slices.Sort(d)
	seg.p50us = float64(percentile(d, 50)) / 1e3
	for _, pct := range tailCandidates {
		seg.tailsUs = append(seg.tailsUs, float64(percentile(d, pct))/1e3)
	}
	if p.traced {
		for _, tr := range traces {
			seg.spans = append(seg.spans, tr.spans)
		}
	}
	return seg, nil
}

// liveHeap is HeapAlloc after two forced collections (the second frees
// what finalizers and sync.Pool victims kept alive through the first).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

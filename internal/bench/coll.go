package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"hls/internal/mpi"
	"hls/internal/topology"
	"hls/internal/wire"
)

// The -exp coll experiment measures the topology-aware two-level
// collectives and the wire transport's frame batching against the flat
// single-level algorithms. Two Worlds joined by real loopback TCP — the
// same framed-socket path two hlsworker processes on different machines
// take — host perNode ranks each under cyclic placement
// (topology.PinCyclicNodes: rank r on node r mod 2, the classic
// launcher layout where consecutive ranks straddle the node boundary).
// Under that placement almost every edge of a flat binomial tree
// crosses the wire, so the sweep exposes the O(ranks) vs O(nodes)
// cross-node frame behavior directly:
//
//   - algorithm flat: the PR 1 channel algorithms, every tree edge a
//     point-to-point message wherever its endpoints live.
//   - algorithm two-level: node-local reduction/fan-out on the shared
//     fast path, leaders-only exchange over the wire.
//
// Each (op, ranks-per-node, size) cell runs under flat and two-level,
// each with wire batching off and on (wire.Config.BatchWindow), and
// every rank folds every result it observes into an FNV-64a digest; the
// per-point digest combines the rank digests in rank order, so the
// bitwise-identity check is "all four ablations produced the same
// digest". Frames are counted by snapshotting both transports'
// FramesSent around the measured loop (the window includes two barrier
// alignments, amortized across the iterations). The JSON snapshot
// (BENCH_coll.json) carries Checks, the acceptance booleans CI tracks
// against the committed baseline.

// collBatchWindow is the flush window for the batched ablations: long
// enough to coalesce a collective's burst toward one peer, short enough
// to bound the latency it adds to each tree hop.
const collBatchWindow = 100 * time.Microsecond

// CollPoint is one collective measurement.
type CollPoint struct {
	Op        string `json:"op"`             // bcast | allreduce
	PerNode   int    `json:"ranks_per_node"` // ranks hosted by each of the two processes
	Bytes     int    `json:"bytes"`          // payload bytes per rank
	Algorithm string `json:"algorithm"`      // flat | two-level
	Batched   bool   `json:"batched"`

	NsPerOp     float64 `json:"ns_per_op"`
	FramesPerOp float64 `json:"frames_per_op"` // cross-node frames per operation, both directions
	// BatchFill is the mean sub-frames per Batch container (0 when
	// batching is off or never engaged); the raw counters it derives
	// from ride along so aggregates stay exact.
	BatchFill       float64 `json:"batch_fill,omitempty"`
	BatchContainers uint64  `json:"batch_containers,omitempty"`
	BatchMessages   uint64  `json:"batch_messages,omitempty"`
	// TwoLevelOps counts collectives that took the two-level path,
	// summed over every rank in both processes.
	TwoLevelOps uint64 `json:"two_level_ops,omitempty"`
	// Digest combines every rank's FNV-64a over the results it observed,
	// in rank order: ablations of the same cell must agree exactly.
	Digest      string `json:"digest"`
	Reconnects  uint64 `json:"reconnects,omitempty"`
	Outstanding int64  `json:"pool_outstanding"`
}

// CollChecks are the experiment's acceptance criteria.
type CollChecks struct {
	// TwoLevelEngaged: every two-level point actually routed its
	// collectives through the decomposition, and no flat point did.
	TwoLevelEngaged bool `json:"two_level_engaged"`
	// FrameCut2x: at the widest node (most ranks per process), unbatched,
	// two-level moved at most half the cross-node frames per Bcast and
	// per Allreduce that flat did.
	FrameCut2x bool `json:"frame_cut_2x"`
	// BatchFillAbove2: across the small-message batched points, the
	// aggregate mean batch fill exceeds 2 messages per container.
	BatchFillAbove2 bool `json:"batch_fill_above_2"`
	// BitwiseIdentical: every (op, ranks, size) cell produced the same
	// digest under flat/two-level x unbatched/batched.
	BitwiseIdentical bool `json:"bitwise_identical"`
	// CleanWire: every point moved frames and finished without a single
	// reconnect.
	CleanWire bool `json:"clean_wire"`
	// NoLeakedBuffers: every run ends with zero pooled eager buffers
	// outstanding in either process.
	NoLeakedBuffers bool `json:"no_leaked_buffers"`
}

// CollResult is the full -exp coll output.
type CollResult struct {
	Profile   string      `json:"profile"`
	Nodes     int         `json:"nodes"`
	Placement string      `json:"placement"` // pin policy of the sweep
	Points    []CollPoint `json:"points"`
	Checks    CollChecks  `json:"checks"`
}

// runCollPoint measures one cell: two Worlds over loopback TCP, perNode
// ranks each under cyclic placement, iters operations of op.
func runCollPoint(op string, perNode, nbytes, iters int, mode mpi.CollectiveMode, batched bool) (CollPoint, error) {
	const nodes = 2
	m, err := topology.New(topology.Spec{
		Name: "collbench", Nodes: nodes, SocketsPerNode: 1,
		CoresPerSocket: perNode, ThreadsPerCore: 1,
	})
	if err != nil {
		return CollPoint{}, err
	}
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return CollPoint{}, err
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln0.Close()
		return CollPoint{}, err
	}
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}
	numTasks := nodes * perNode
	worlds := make([]*mpi.World, nodes)
	for self, ln := range []net.Listener{ln0, ln1} {
		wcfg := wire.Config{Addrs: addrs, Self: self, WorldKey: 1}
		if batched {
			wcfg.BatchWindow = collBatchWindow
		}
		tr, err := wire.NewTCP(wcfg, ln)
		if err != nil {
			return CollPoint{}, err
		}
		worlds[self], err = mpi.NewWorld(mpi.Config{
			NumTasks: numTasks, Machine: m, Pin: topology.PinCyclicNodes,
			Wire:        &mpi.WireConfig{Transport: tr},
			Collectives: mode,
			Timeout:     5 * time.Minute,
		})
		if err != nil {
			return CollPoint{}, err
		}
	}

	frames := func() uint64 {
		var total uint64
		for _, w := range worlds {
			if st, ok := w.WireStats(); ok {
				total += st.FramesSent
			}
		}
		return total
	}

	elems := nbytes / 8
	if elems < 1 {
		elems = 1
	}
	digests := make([]uint64, numTasks)
	var before, after uint64
	var elapsed time.Duration
	body := func(tk *mpi.Task) error {
		n, r := tk.Size(), tk.Rank()
		h := fnv.New64a()
		var scratch [8]byte
		fold := func(vals []int64) {
			for _, v := range vals {
				for b := 0; b < 8; b++ {
					scratch[b] = byte(uint64(v) >> (8 * b))
				}
				h.Write(scratch[:]) //nolint:errcheck // fnv never fails
			}
		}
		buf := make([]int64, elems)
		out := make([]int64, elems)
		step := func(i int, measure bool) error {
			switch op {
			case "bcast":
				// The root rotates, so the tree is rebuilt around every
				// rank in turn — the average flat cost, not the best case.
				root := i % n
				if r == root {
					for j := range buf {
						buf[j] = int64(i*1000003 + j)
					}
				} else {
					for j := range buf {
						buf[j] = 0
					}
				}
				mpi.Bcast(tk, nil, buf, root)
				if measure {
					fold(buf)
				}
			case "allreduce":
				for j := range buf {
					buf[j] = int64((r+1)*(i+7) + j)
				}
				mpi.Allreduce(tk, nil, buf, out, mpi.OpSum)
				if measure {
					fold(out)
				}
			default:
				return fmt.Errorf("unknown op %q", op)
			}
			return nil
		}
		for i := 0; i < 5; i++ { // warm the connections and pools
			if err := step(i, false); err != nil {
				return err
			}
		}
		mpi.Barrier(tk, nil)
		if r == 0 {
			before = frames()
		}
		mpi.Barrier(tk, nil)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := step(i, true); err != nil {
				return err
			}
		}
		mpi.Barrier(tk, nil)
		if r == 0 {
			after = frames()
			elapsed = time.Since(start)
		}
		digests[r] = h.Sum64()
		return nil
	}

	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for i, w := range worlds {
		wg.Add(1)
		go func(i int, w *mpi.World) {
			defer wg.Done()
			errs[i] = runWorld(w, body)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return CollPoint{}, fmt.Errorf("world %d: %w", i, err)
		}
	}

	alg := "flat"
	if mode == mpi.CollTwoLevel {
		alg = "two-level"
	}
	pt := CollPoint{
		Op: op, PerNode: perNode, Bytes: nbytes, Algorithm: alg, Batched: batched,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		FramesPerOp: float64(after-before) / float64(iters),
	}
	for _, w := range worlds {
		if st, ok := w.WireStats(); ok {
			pt.Reconnects += st.Reconnects
			pt.BatchContainers += st.BatchesSent
			pt.BatchMessages += st.BatchedFrames
		}
		pt.TwoLevelOps += uint64(w.Stats().TwoLevelCollectives)
		pt.Outstanding += w.Stats().EagerPoolOutstanding
	}
	if pt.BatchContainers > 0 {
		pt.BatchFill = float64(pt.BatchMessages) / float64(pt.BatchContainers)
	}
	comb := fnv.New64a()
	var scratch [8]byte
	for _, d := range digests {
		for b := 0; b < 8; b++ {
			scratch[b] = byte(d >> (8 * b))
		}
		comb.Write(scratch[:]) //nolint:errcheck
	}
	pt.Digest = fmt.Sprintf("%016x", comb.Sum64())
	return pt, nil
}

// RunColl runs the collective experiment: op x ranks-per-process x size
// x algorithm x batching, all over two loopback-TCP processes with
// cyclic rank placement.
func RunColl(p Profile) (*CollResult, error) {
	iters := 80
	if p == Full {
		iters = 400
	}
	res := &CollResult{
		Profile: p.String(), Nodes: 2,
		Placement: topology.PinCyclicNodes.String(),
	}
	for _, op := range []string{"bcast", "allreduce"} {
		for _, perNode := range []int{2, 8} {
			for _, nbytes := range []int{8, 1024} {
				for _, mode := range []mpi.CollectiveMode{mpi.CollChannels, mpi.CollTwoLevel} {
					for _, batched := range []bool{false, true} {
						pt, err := runCollPoint(op, perNode, nbytes, iters, mode, batched)
						if err != nil {
							return nil, fmt.Errorf("%s x%d %dB %v batched=%v: %w",
								op, perNode, nbytes, mode, batched, err)
						}
						res.Points = append(res.Points, pt)
					}
				}
			}
		}
	}
	res.Checks = computeCollChecks(res)
	return res, nil
}

func computeCollChecks(res *CollResult) CollChecks {
	ch := CollChecks{
		TwoLevelEngaged: true, BitwiseIdentical: true,
		CleanWire: true, NoLeakedBuffers: true,
	}
	maxPerNode, minBytes := 0, 0
	for _, pt := range res.Points {
		if pt.PerNode > maxPerNode {
			maxPerNode = pt.PerNode
		}
		if minBytes == 0 || pt.Bytes < minBytes {
			minBytes = pt.Bytes
		}
	}
	// flatFrames/twoFrames: per-op frame cost at the widest node,
	// unbatched, keyed by op.
	flatFrames := map[string]float64{}
	twoFrames := map[string]float64{}
	digests := map[string]map[string]bool{} // cell -> distinct digests
	var batchMsgs, batchConts float64
	sawSmallBatched := false
	for _, pt := range res.Points {
		if pt.FramesPerOp <= 0 || pt.Reconnects != 0 {
			ch.CleanWire = false
		}
		if pt.Outstanding != 0 {
			ch.NoLeakedBuffers = false
		}
		twoLevel := pt.Algorithm == "two-level"
		if twoLevel && pt.TwoLevelOps == 0 {
			ch.TwoLevelEngaged = false
		}
		if !twoLevel && pt.TwoLevelOps != 0 {
			ch.TwoLevelEngaged = false
		}
		if pt.PerNode == maxPerNode && !pt.Batched {
			if twoLevel {
				twoFrames[pt.Op] = pt.FramesPerOp
			} else {
				flatFrames[pt.Op] = pt.FramesPerOp
			}
		}
		if pt.Batched && pt.Bytes == minBytes {
			sawSmallBatched = true
			batchMsgs += float64(pt.BatchMessages)
			batchConts += float64(pt.BatchContainers)
		}
		cell := fmt.Sprintf("%s/%d/%d", pt.Op, pt.PerNode, pt.Bytes)
		if digests[cell] == nil {
			digests[cell] = map[string]bool{}
		}
		digests[cell][pt.Digest] = true
	}
	// FrameCut2x must hold for every op measured at the widest node.
	ch.FrameCut2x = len(flatFrames) > 0 && len(twoFrames) == len(flatFrames)
	for op, flat := range flatFrames {
		if two := twoFrames[op]; two <= 0 || flat < 2*two {
			ch.FrameCut2x = false
		}
	}
	ch.BatchFillAbove2 = sawSmallBatched && batchConts > 0 && batchMsgs/batchConts > 2
	for _, set := range digests {
		if len(set) > 1 {
			ch.BitwiseIdentical = false
		}
	}
	return ch
}

// PrintColl renders the measurements and the acceptance checks.
func PrintColl(w io.Writer, res *CollResult) {
	fprintf(w, "Two-level collectives vs flat, %d nodes, %s placement\n", res.Nodes, res.Placement)
	fprintf(w, "%-10s %6s %6s %-9s %-7s %10s %10s %8s %12s\n",
		"op", "ranks", "bytes", "alg", "batch", "ns/op", "frames/op", "fill", "digest")
	for _, pt := range res.Points {
		batch := "off"
		if pt.Batched {
			batch = "on"
		}
		fprintf(w, "%-10s %6d %6d %-9s %-7s %10.0f %10.2f %8.2f %12s\n",
			pt.Op, 2*pt.PerNode, pt.Bytes, pt.Algorithm, batch,
			pt.NsPerOp, pt.FramesPerOp, pt.BatchFill, pt.Digest[:12])
	}
	fprintf(w, "\nChecks:\n")
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"two-level decomposition engaged exactly when selected", res.Checks.TwoLevelEngaged},
		{"two-level cuts cross-node frames/op by >=2x at the widest node", res.Checks.FrameCut2x},
		{"mean batch fill above 2 messages/frame on the small-message sweep", res.Checks.BatchFillAbove2},
		{"results bitwise-identical across all ablations", res.Checks.BitwiseIdentical},
		{"clean wire runs: frames flowed, zero reconnects", res.Checks.CleanWire},
		{"no pooled buffers leaked in either process", res.Checks.NoLeakedBuffers},
	} {
		state := "PASS"
		if !c.ok {
			state = "FAIL"
		}
		fprintf(w, "  [%s] %s\n", state, c.name)
	}
}

// WriteCollCSV writes the measurements as one flat table.
func WriteCollCSV(w io.Writer, res *CollResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"op", "ranks_per_node", "bytes", "algorithm", "batched",
		"ns_per_op", "frames_per_op", "batch_fill", "two_level_ops",
		"digest", "reconnects", "pool_outstanding",
	}); err != nil {
		return err
	}
	for _, pt := range res.Points {
		if err := cw.Write([]string{
			pt.Op, strconv.Itoa(pt.PerNode), strconv.Itoa(pt.Bytes),
			pt.Algorithm, strconv.FormatBool(pt.Batched),
			fmt.Sprintf("%.1f", pt.NsPerOp),
			fmt.Sprintf("%.2f", pt.FramesPerOp),
			fmt.Sprintf("%.2f", pt.BatchFill),
			strconv.FormatUint(pt.TwoLevelOps, 10),
			pt.Digest,
			strconv.FormatUint(pt.Reconnects, 10),
			strconv.FormatInt(pt.Outstanding, 10),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCollJSON writes the full result snapshot (BENCH_coll.json).
func WriteCollJSON(w io.Writer, res *CollResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// ReadCollJSON parses a snapshot written by WriteCollJSON.
func ReadCollJSON(r io.Reader) (*CollResult, error) {
	var res CollResult
	if err := json.NewDecoder(r).Decode(&res); err != nil {
		return nil, err
	}
	return &res, nil
}

// CompareColl prints an old/new comparison and returns an error if an
// acceptance check that held in the baseline fails now. Timing and
// frame-count deltas are informational; check regressions are hard
// failures.
func CompareColl(w io.Writer, base, cur *CollResult) error {
	delta := func(old, new float64) string {
		if old <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
	}
	fprintf(w, "Coll comparison vs baseline (%s profile)\n", base.Profile)
	for _, b := range base.Points {
		for _, c := range cur.Points {
			if b.Op == c.Op && b.PerNode == c.PerNode && b.Bytes == c.Bytes &&
				b.Algorithm == c.Algorithm && b.Batched == c.Batched {
				fprintf(w, "  %-10s x%-2d %5dB %-9s batch=%-5v %9.0f -> %9.0f ns/op %8s  frames %6.2f -> %6.2f\n",
					b.Op, b.PerNode, b.Bytes, b.Algorithm, b.Batched,
					b.NsPerOp, c.NsPerOp, delta(b.NsPerOp, c.NsPerOp),
					b.FramesPerOp, c.FramesPerOp)
			}
		}
	}
	return compareChecks(w, "coll", base.Checks, cur.Checks)
}

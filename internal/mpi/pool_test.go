package mpi

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestPingPongZeroAllocs is the datapath's acceptance check: a
// steady-state eager ping-pong performs zero allocations per operation —
// messages, requests and eager payloads all come from pools, matching is
// bucket lookups, and the blocking waits park on pooled notifiers. World
// setup allocates, but amortized over the benchmark's N it must round to
// zero allocs/op.
func TestPingPongZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-driven test")
	}
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; zero allocs cannot hold")
	}
	res := testing.Benchmark(func(b *testing.B) {
		w, err := NewWorld(Config{NumTasks: 2})
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(task *Task) error {
			buf := make([]float64, 64) // 512 B: eager
			for i := 0; i < b.N; i++ {
				if task.Rank() == 0 {
					Send(task, nil, buf, 1, 0)
					Recv(task, nil, buf, 1, 1)
				} else {
					Recv(task, nil, buf, 0, 0)
					Send(task, nil, buf, 0, 1)
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Errorf("eager ping-pong allocs/op = %d, want 0 (N=%d)", a, res.N)
	}
}

// TestBarrierZeroAllocs: a steady-state channel Barrier between two
// in-process ranks allocates nothing per operation. Its hops are eager
// 0-byte sends and receives on the collective context, and their
// requests are recycled like the point-to-point ones.
func TestBarrierZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-driven test")
	}
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; zero allocs cannot hold")
	}
	res := testing.Benchmark(func(b *testing.B) {
		w, err := NewWorld(Config{NumTasks: 2, Collectives: CollChannels})
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(task *Task) error {
			for i := 0; i < b.N; i++ {
				Barrier(task, nil)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Errorf("channel Barrier allocs/op = %d, want 0 (N=%d)", a, res.N)
	}
}

// TestWirePingPongAllocs: a 64 B eager ping-pong between two worlds
// over loopback TCP makes no allocation per round trip once warm:
// frames, encode buffers and acks are pooled, and each remote send
// frames through its endpoint's reused header.
func TestWirePingPongAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive wire test")
	}
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; the count cannot hold")
	}
	const warm, runs = 200, 1000
	var allocs float64
	_, _, err0, err1 := runWirePair(t, 1, func(task *Task) error {
		buf := make([]float64, 8) // 64 B: eager
		if task.Rank() == 1 {
			// AllocsPerRun calls its function once more than runs.
			for i := 0; i < warm+runs+1; i++ {
				Recv(task, nil, buf, 0, 0)
				Send(task, nil, buf, 0, 1)
			}
			return nil
		}
		roundTrip := func() {
			Send(task, nil, buf, 1, 0)
			Recv(task, nil, buf, 1, 1)
		}
		for i := 0; i < warm; i++ {
			roundTrip()
		}
		allocs = testing.AllocsPerRun(runs, roundTrip)
		return nil
	})
	if err0 != nil || err1 != nil {
		t.Fatalf("world errors: %v / %v", err0, err1)
	}
	if allocs != 0 {
		t.Errorf("wire ping-pong allocs per round trip = %v, want 0", allocs)
	}
}

// TestWireRendezvousAllocs: a 256 KiB rendezvous ping-pong between two
// worlds over loopback TCP makes no allocation per round trip once warm,
// so it never triggers a GC: encode buffers come from the wire's size
// classes, the rendezvous records and their headers from pools, and the
// data lands in the posted receive.
func TestWireRendezvousAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive wire test")
	}
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; the count cannot hold")
	}
	const warm, runs = 200, 1000
	var mallocs, gcs uint64
	_, _, err0, err1 := runWirePair(t, 1, func(task *Task) error {
		buf := make([]byte, 256<<10) // above the eager limit: RTS/CTS/Data
		if task.Rank() == 1 {
			for i := 0; i < warm+runs; i++ {
				Recv(task, nil, buf, 0, 0)
				Send(task, nil, buf, 0, 1)
			}
			return nil
		}
		for i := 0; i < warm; i++ {
			Send(task, nil, buf, 1, 0)
			Recv(task, nil, buf, 1, 1)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			Send(task, nil, buf, 1, 0)
			Recv(task, nil, buf, 1, 1)
		}
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
		gcs = uint64(after.NumGC - before.NumGC)
		return nil
	})
	if err0 != nil || err1 != nil {
		t.Fatalf("world errors: %v / %v", err0, err1)
	}
	t.Logf("%d mallocs, %d GC cycles over %d round trips", mallocs, gcs, runs)
	if perOp := mallocs / runs; perOp != 0 {
		t.Errorf("wire rendezvous allocs per round trip = %d (%d over %d), want 0", perOp, mallocs, runs)
	}
	if gcs != 0 {
		t.Errorf("wire rendezvous ran %d GC cycles over %d round trips, want 0", gcs, runs)
	}
}

// TestPoolClassBoundaries pins the size-class selection at the exact
// class edges: a payload of exactly a class's capacity belongs to that
// class (not the next), and only payloads beyond the largest class —
// beyond the eager limit — fall off the pooled path. A regression here
// silently double-sizes every boundary-sized packed message.
func TestPoolClassBoundaries(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{0, 0}, {1, 0}, {63, 0}, {64, 0},
		{65, 1}, {128, 1}, {129, 2},
		{4095, 6}, {4096, 6}, {4097, 7},
	} {
		if got := poolClassFor(tc.n); got != tc.class {
			t.Errorf("poolClassFor(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}

	p := newBufPool(2, DefaultEagerLimit)
	if p.maxSize != DefaultEagerLimit {
		t.Fatalf("maxSize = %d, want %d", p.maxSize, DefaultEagerLimit)
	}

	// A payload of exactly the eager limit must stay pooled: released, it
	// re-enters its home rank's cache and the next get returns the very
	// same buffer.
	b := p.get(0, DefaultEagerLimit)
	if b.class < 0 || len(b.data) != DefaultEagerLimit {
		t.Fatalf("limit-sized get: class %d cap %d, want pooled at %d", b.class, len(b.data), DefaultEagerLimit)
	}
	p.release(b)
	if got := p.recycled.Load(); got != int64(DefaultEagerLimit) {
		t.Errorf("recycled = %d after one pooled release, want %d", got, DefaultEagerLimit)
	}
	if again := p.get(0, DefaultEagerLimit); again != b {
		t.Error("limit-sized buffer did not come back from the rank cache")
	} else {
		p.release(again)
	}

	// One byte past the limit is oversize: unpooled, and its release must
	// not count as recycled capacity (the GC reclaims it).
	before := p.recycled.Load()
	ob := p.get(0, DefaultEagerLimit+1)
	if ob.class != -1 {
		t.Fatalf("oversize get: class %d, want -1", ob.class)
	}
	p.release(ob)
	if got := p.recycled.Load(); got != before {
		t.Errorf("recycled moved by %d on an oversize release, want 0", got-before)
	}
	if p.outstanding() != 0 {
		t.Errorf("outstanding = %d, want 0", p.outstanding())
	}
}

// TestPoolCapOverflowNotRecycled: a release that finds both its rank
// cache and the shared class full drops the buffer to the GC — counted
// as a put (outstanding stays exact) but not as recycled capacity.
func TestPoolCapOverflowNotRecycled(t *testing.T) {
	p := newBufPool(1, DefaultEagerLimit)
	const n = 64
	bufs := make([]*eagerBuf, 0, poolRankCap+poolSharedCap+5)
	for i := 0; i < cap(bufs); i++ {
		bufs = append(bufs, p.get(0, n))
	}
	for _, b := range bufs {
		p.release(b)
	}
	wantRecycled := int64((poolRankCap + poolSharedCap) * n)
	if got := p.recycled.Load(); got != wantRecycled {
		t.Errorf("recycled = %d, want %d (rank cap %d + shared cap %d, overflow dropped)",
			got, wantRecycled, poolRankCap, poolSharedCap)
	}
	if got := p.puts.Load(); got != int64(len(bufs)) {
		t.Errorf("puts = %d, want %d (every release counted)", got, len(bufs))
	}
	if p.outstanding() != 0 {
		t.Errorf("outstanding = %d, want 0", p.outstanding())
	}
}

// TestTypedSendZeroAllocs: the packed typed datapath (datapath 1: pack
// into a pooled eager buffer) and the elided datapath (datapath 2:
// posted receive, strided-to-strided) both run allocation-free in the
// steady state — the acceptance gate for the derived-datatype layer.
func TestTypedSendZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-driven test")
	}
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; zero allocs cannot hold")
	}
	res := testing.Benchmark(func(b *testing.B) {
		w, err := NewWorld(Config{NumTasks: 2})
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(task *Task) error {
			dt := TypeVector(64, 4, 8).Commit() // 256 elems packed: 2 KiB, eager
			buf := make([]float64, dt.Extent())
			for i := 0; i < b.N; i++ {
				if task.Rank() == 0 {
					SendTyped(task, nil, buf, dt, 1, 0)
					RecvTyped(task, nil, buf, dt, 1, 1)
				} else {
					RecvTyped(task, nil, buf, dt, 0, 0)
					SendTyped(task, nil, buf, dt, 0, 1)
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Errorf("typed ping-pong allocs/op = %d, want 0 (N=%d)", a, res.N)
	}
}

// TestEagerPoolRecycling: unexpected eager traffic is served from the
// pool after warm-up, recycled-byte accounting moves, and no buffer stays
// outstanding once the world is done.
func TestEagerPoolRecycling(t *testing.T) {
	const rounds = 50
	w := run(t, 2, func(task *Task) error {
		buf := make([]int32, 100) // 400 B -> 512 B class
		for i := 0; i < rounds; i++ {
			if task.Rank() == 0 {
				Send(task, nil, buf, 1, 0)
				var ack [1]int32
				Recv(task, nil, ack[:], 1, 1)
			} else {
				// Probe blocks until the message is queued unexpected, so
				// every round exercises the pooled-payload path (a posted
				// receive would take the poolless direct-delivery path).
				Probe(task, nil, 0, 0)
				Recv(task, nil, buf, 0, 0)
				Send(task, nil, buf[:1], 0, 1)
			}
		}
		return nil
	})
	s := w.Stats()
	if s.EagerPoolOutstanding != 0 {
		t.Errorf("EagerPoolOutstanding = %d after Run, want 0", s.EagerPoolOutstanding)
	}
	gets := s.EagerPoolHits + s.EagerPoolMisses
	if gets == 0 {
		t.Fatal("no pool traffic for unexpected eager messages")
	}
	if s.EagerPoolHits == 0 {
		t.Errorf("EagerPoolHits = 0 over %d rounds: pool never recycled (misses %d)", rounds, s.EagerPoolMisses)
	}
	if s.EagerPoolRecycledBytes == 0 {
		t.Error("EagerPoolRecycledBytes = 0, want > 0")
	}
	// Ping-pong keeps at most a handful of buffers in flight; misses
	// beyond the cache capacity would mean recycling is broken.
	if s.EagerPoolMisses > poolRankCap+poolSharedCap {
		t.Errorf("EagerPoolMisses = %d, want bounded by cache warm-up", s.EagerPoolMisses)
	}
}

// TestDirectDeliverySingleCopy: a send that finds its receive already
// posted copies sender buffer -> receiver buffer directly — counted as a
// direct delivery, with no pool traffic at all.
func TestDirectDeliverySingleCopy(t *testing.T) {
	w := run(t, 2, func(task *Task) error {
		buf := make([]float64, 32)
		if task.Rank() == 1 {
			req := Irecv(task, nil, buf, 0, 0)
			Barrier(task, nil)
			st := req.Wait()
			if st.Count != 32 {
				return fmt.Errorf("status = %+v", st)
			}
			return nil
		}
		for i := range buf {
			buf[i] = float64(i)
		}
		Barrier(task, nil)
		Send(task, nil, buf, 1, 0)
		return nil
	})
	s := w.Stats()
	if s.DirectDeliveries != 1 {
		t.Errorf("DirectDeliveries = %d, want 1", s.DirectDeliveries)
	}
	if gets := s.EagerPoolHits + s.EagerPoolMisses; gets != 0 {
		t.Errorf("pool gets = %d for a posted-receive delivery, want 0 (single copy)", gets)
	}
}

// TestPeakUnexpectedBytesPooled: the unexpected-queue watermark counts
// message payload bytes, not the power-of-two capacity of the pooled
// buffers behind them (5 B rides in a 64 B class buffer).
func TestPeakUnexpectedBytesPooled(t *testing.T) {
	const msgs = 10
	w := run(t, 2, func(task *Task) error {
		if task.Rank() == 0 {
			payload := []byte{1, 2, 3, 4, 5}
			for i := 0; i < msgs; i++ {
				Send(task, nil, payload, 1, i)
			}
			Send(task, nil, []byte{}, 1, 99) // zero-byte gate, after all payloads
		} else {
			// The gate is zero bytes, so it moves the watermark by nothing
			// whether it queues or matches; it is sent after every payload,
			// so once it is received all ten payloads are queued.
			Recv(task, nil, []byte{}, 0, 99)
			if got := task.world.Stats().PeakUnexpectedBytes; got != 5*msgs {
				return fmt.Errorf("PeakUnexpectedBytes = %d with %d queued, want %d (payload, not pooled capacity)",
					got, msgs, 5*msgs)
			}
			buf := make([]byte, 5)
			for i := 0; i < msgs; i++ {
				Recv(task, nil, buf, 0, i)
			}
		}
		return nil
	})
	if got := w.Stats().PeakUnexpectedBytes; got != 5*msgs {
		t.Errorf("final PeakUnexpectedBytes = %d, want %d", got, 5*msgs)
	}
}

// dupDropHooks injects a deterministic duplicate/drop schedule per
// sending rank: of every five messages a rank sends, the second is
// dropped and the fourth duplicated. Counters are per-source, so the
// schedule is independent of cross-rank interleaving.
type dupDropHooks struct {
	mu  sync.Mutex
	n   map[int]int
	dup bool // also duplicate (drop-only when false)
}

func (h *dupDropHooks) OnSend(worldSrc, worldDst int) any { return nil }
func (h *dupDropHooks) OnDeliver(worldDst int, meta any)  {}

func (h *dupDropHooks) FaultP2P(worldSrc, worldDst, bytes int, rendezvous bool) FaultAction {
	h.mu.Lock()
	i := h.n[worldSrc]
	h.n[worldSrc]++
	h.mu.Unlock()
	return FaultAction{
		Drop:      i%5 == 1,
		Duplicate: h.dup && i%5 == 3,
	}
}

// dupDropSurvives reports whether message i of a sender's schedule is
// delivered (not dropped).
func dupDropSurvives(i int) bool { return i%5 != 1 }

// TestChaosDupDropPoolStress runs duplicated and dropped eager messages
// over the pooled datapath under load: payloads must arrive uncorrupted
// (no use-after-recycle — a recycled buffer would be overwritten by a
// later send) and every pooled buffer must be released once Run returns,
// including the never-received duplicate copies drained at teardown.
// Run under -race by the CI chaos job.
func TestChaosDupDropPoolStress(t *testing.T) {
	const senders = 7
	const msgsPerSender = 60
	hooks := &dupDropHooks{n: make(map[int]int), dup: true}
	w, err := Run(Config{NumTasks: senders + 1, Timeout: 30 * time.Second, Hooks: hooks},
		func(task *Task) error {
			if task.Rank() > 0 {
				src := task.Rank()
				for i := 0; i < msgsPerSender; i++ {
					elems := 1 + (i*37)%512 // sweep several size classes
					buf := make([]int32, elems)
					for j := range buf {
						buf[j] = int32(src*100000 + i)
					}
					Send(task, nil, buf, 0, i)
				}
				return nil
			}
			// Rank 0 receives every surviving message, in per-sender order
			// (tags are unique per sender, so cross-sender order is free).
			for src := 1; src <= senders; src++ {
				for i := 0; i < msgsPerSender; i++ {
					if !dupDropSurvives(i) {
						continue
					}
					elems := 1 + (i*37)%512
					buf := make([]int32, elems)
					st := Recv(task, nil, buf, src, i)
					if st.Count != elems {
						return fmt.Errorf("src %d msg %d: count %d, want %d", src, i, st.Count, elems)
					}
					for j, v := range buf {
						if v != int32(src*100000+i) {
							return fmt.Errorf("src %d msg %d elem %d: corrupt payload %d (use-after-recycle?)",
								src, i, j, v)
						}
					}
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.EagerPoolOutstanding != 0 {
		t.Errorf("EagerPoolOutstanding = %d after Run, want 0 (leaked pool buffers)", s.EagerPoolOutstanding)
	}
}

// TestChaosDropRendezvousPooling: dropped rendezvous messages must not
// leak pool buffers either (their payload never enters the pool), and
// the drop-only schedule leaves the pool balanced.
func TestChaosDropRendezvousPooling(t *testing.T) {
	hooks := &dupDropHooks{n: make(map[int]int)} // drop only
	const msgs = 15
	big := DefaultEagerLimit/8 + 64 // rendezvous-sized float64 count
	w, err := Run(Config{NumTasks: 2, Timeout: 30 * time.Second, Hooks: hooks},
		func(task *Task) error {
			if task.Rank() == 0 {
				buf := make([]float64, big)
				for i := 0; i < msgs; i++ {
					Send(task, nil, buf, 1, i) // drops complete the handshake
				}
				return nil
			}
			buf := make([]float64, big)
			for i := 0; i < msgs; i++ {
				if !dupDropSurvives(i) {
					continue
				}
				Recv(task, nil, buf, 0, i)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if s := w.Stats(); s.EagerPoolOutstanding != 0 {
		t.Errorf("EagerPoolOutstanding = %d after Run, want 0", s.EagerPoolOutstanding)
	}
}

// TestConcurrentProbeRecv: with per-bucket conditions, a Probe blocked on
// one source must still wake for its own traffic while concurrent
// receives consume other buckets. Two goroutines of one task probe and
// receive concurrently, repeatedly.
func TestConcurrentProbeRecv(t *testing.T) {
	const rounds = 100
	run(t, 3, func(task *Task) error {
		switch task.Rank() {
		case 1, 2:
			buf := []int{task.Rank()}
			for i := 0; i < rounds; i++ {
				Send(task, nil, buf, 0, i)
				var ack [1]int
				Recv(task, nil, ack[:], 0, i)
			}
			return nil
		}
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for _, src := range []int{1, 2} {
			wg.Add(1)
			go func(src int) {
				defer wg.Done()
				buf := make([]int, 1)
				for i := 0; i < rounds; i++ {
					// Blocking Probe parks on the (ctx, src) bucket; the
					// matching arrival must wake it even while the other
					// goroutine's traffic hits a different bucket.
					st := Probe(task, nil, src, i)
					if st.Source != src || st.Count != 1 {
						errs <- fmt.Errorf("probe src %d round %d: %+v", src, i, st)
						return
					}
					Recv(task, nil, buf, src, i)
					if buf[0] != src {
						errs <- fmt.Errorf("recv src %d round %d: payload %d", src, i, buf[0])
						return
					}
					Send(task, nil, buf[:1], src, i)
				}
			}(src)
		}
		wg.Wait()
		select {
		case err := <-errs:
			return err
		default:
			return nil
		}
	})
}

// TestWildcardSpecificPostOrder: an AnySource receive posted before a
// specific-source receive matches first — the bucketed engine must merge
// the wildcard queue and the (ctx, src) bucket by post sequence, the MPI
// matching rule.
func TestWildcardSpecificPostOrder(t *testing.T) {
	run(t, 2, func(task *Task) error {
		if task.Rank() == 1 {
			bufWild := make([]int, 1)
			bufSpec := make([]int, 1)
			rWild := Irecv(task, nil, bufWild, AnySource, 0)
			rSpec := Irecv(task, nil, bufSpec, 0, 0)
			Barrier(task, nil)
			rWild.Wait()
			rSpec.Wait()
			if bufWild[0] != 10 || bufSpec[0] != 20 {
				return fmt.Errorf("wildcard got %d, specific got %d; want 10, 20 (post order)",
					bufWild[0], bufSpec[0])
			}
			return nil
		}
		Barrier(task, nil)
		Send(task, nil, []int{10}, 1, 0)
		Send(task, nil, []int{20}, 1, 0)
		return nil
	})
}

// TestNonOvertakingMixedWildcards: messages of one (source, comm, tag)
// stream stay in order even when the receiver alternates specific-source
// and AnySource receives — the cross-queue sequence merge again.
func TestNonOvertakingMixedWildcards(t *testing.T) {
	const k = 60
	run(t, 2, func(task *Task) error {
		if task.Rank() == 0 {
			for i := 0; i < k; i++ {
				Send(task, nil, []int{i}, 1, 0)
			}
			return nil
		}
		buf := make([]int, 1)
		for i := 0; i < k; i++ {
			var st Status
			switch i % 3 {
			case 0:
				st = Recv(task, nil, buf, 0, 0)
			case 1:
				st = Recv(task, nil, buf, AnySource, 0)
			default:
				st = Recv(task, nil, buf, AnySource, AnyTag)
			}
			if buf[0] != i {
				return fmt.Errorf("message %d arrived at position %d (status %+v)", buf[0], i, st)
			}
		}
		return nil
	})
}

// TestMatchProbesBounded: exact-match traffic costs O(1) probes per
// message. Concurrent ping-pong pairs' probe count must stay within a
// small constant of their message count at every world size — the linear
// scans this replaced grew with every pending operation on the endpoint.
func TestMatchProbesBounded(t *testing.T) {
	const rounds = 200
	for _, tasks := range []int{2, 8, 32} {
		t.Run(fmt.Sprintf("tasks=%d", tasks), func(t *testing.T) {
			w := run(t, tasks, func(task *Task) error {
				buf := []int{0}
				peer := task.Rank() ^ 1
				for i := 0; i < rounds; i++ {
					if task.Rank()%2 == 0 {
						Send(task, nil, buf, peer, 0)
						Recv(task, nil, buf, peer, 0)
					} else {
						Recv(task, nil, buf, peer, 0)
						Send(task, nil, buf, peer, 0)
					}
				}
				return nil
			})
			s := w.Stats()
			if s.Messages == 0 {
				t.Fatal("no messages")
			}
			if perMsg := float64(s.MatchProbes) / float64(s.Messages); perMsg > 2 {
				t.Errorf("match probes per message = %.2f (%d/%d), want <= 2",
					perMsg, s.MatchProbes, s.Messages)
			}
		})
	}
}

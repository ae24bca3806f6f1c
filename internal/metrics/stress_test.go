package metrics_test

import (
	"sync/atomic"
	"testing"
	"time"

	"hls/internal/hls"
	"hls/internal/metrics"
	"hls/internal/mpi"
	"hls/internal/rma"
	"hls/internal/topology"
)

// countingHooks is a plain mpi.Hooks installed beside the MPI adapter's
// watch, checking that every message hands its own metadata back.
type countingHooks struct {
	sends    atomic.Int64
	delivers atomic.Int64
	badMeta  atomic.Int64
}

func (c *countingHooks) OnSend(src, dst int) any {
	c.sends.Add(1)
	return src*1000 + dst
}

func (c *countingHooks) OnDeliver(dst int, meta any) {
	c.delivers.Add(1)
	if v, ok := meta.(int); !ok || v%1000 != dst {
		c.badMeta.Add(1)
	}
}

// countingObserver is a second hls.SyncObserver beside the HLS adapter.
type countingObserver struct{ arrives, departs atomic.Int64 }

func (c *countingObserver) Arrive(key string, rank int) { c.arrives.Add(1) }
func (c *countingObserver) Depart(key string, rank int) { c.departs.Add(1) }

// TestStressAllAdapters drives all three metrics adapters from one
// 32-task world under load — point-to-point rings, barriers, singles,
// nowaits, a lazy HLS allocation, and an RMA window with fences, locks
// and one-sided ops. The MPI adapter watches the world's Stats while a
// plain hook sees every message; the HLS adapter times directives beside
// a plain second observer and watches the registry's Stats, and the RMA
// adapter watches the window's Stats, while a scraper reads the
// registry throughout. Run with -race: the sharded histograms, the striped
// open-span maps, the observer loop and the Stats reads beside the
// per-rank single and window counters are all exercised concurrently.
func TestStressAllAdapters(t *testing.T) {
	const iters = 40
	reg := metrics.New(32)
	mpiAd := metrics.NewMPIAdapter(reg)
	hlsAd := metrics.NewHLSAdapter(reg)
	rmaAd := metrics.NewRMAAdapter(reg)

	extraHooks := &countingHooks{}
	extraObs := &countingObserver{}

	machine := topology.NehalemEX4()
	w, err := mpi.NewWorld(mpi.Config{
		NumTasks: 32,
		Machine:  machine,
		Pin:      topology.PinCorePerTask,
		Timeout:  2 * time.Minute,
		Hooks:    extraHooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mpiAd.Watch(w)()
	if w.Size() < 32 {
		t.Fatalf("want >= 32 tasks, got %d", w.Size())
	}
	hreg := hls.New(w, hls.WithObserver(hlsAd, nil, extraObs))
	defer hlsAd.Watch(hreg)()
	shared := hls.Declare[int64](hreg, "stress_table", topology.Node, 64)

	// A scraper reads every pulled series while the directives run, as
	// a live /metrics endpoint does.
	scraped := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
				reg.Snapshot()
			}
		}
	}()
	var singleWins atomic.Int64
	err = w.Run(func(task *mpi.Task) error {
		me := task.Rank()
		n := w.Size()
		win := rma.WinAllocate[int64](task, nil, 4)
		if me == 0 {
			defer rmaAd.Watch(win)()
		}
		buf := []int64{0}
		for i := 0; i < iters; i++ {
			// Point-to-point ring (exercises the MPI adapter).
			mpi.Send(task, nil, []int64{int64(i)}, (me+1)%n, 7)
			mpi.Recv(task, nil, buf, (me+n-1)%n, 7)

			// Directives (exercises the HLS adapter).
			shared.Single(task, func(d []int64) {
				singleWins.Add(1)
				d[i%len(d)]++
			})
			shared.SingleNowait(task, func(d []int64) {})
			hreg.Barrier(task, shared)

			// One-sided traffic (exercises the RMA adapter).
			win.Fence(task)
			win.Put(task, []int64{int64(me)}, (me+1)%n, 0)
			win.Fence(task)
			win.Lock(task, rma.LockExclusive, me)
			win.Unlock(task, me)
		}
		win.Free(task)
		return nil
	})
	close(done)
	<-scraped
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot(metrics.WithPerShard())
	find := func(name string) (metrics.SeriesValue, bool) {
		for _, c := range snap.Counters {
			if c.Name == name {
				return c, true
			}
		}
		return metrics.SeriesValue{}, false
	}

	sends, ok := find("mpi_sends_total")
	wantSends := int64(32 * iters)
	if !ok || sends.Value < wantSends {
		t.Fatalf("mpi_sends_total = %+v, want >= %d", sends, wantSends)
	}
	if got := extraHooks.sends.Load(); got < wantSends {
		t.Fatalf("the plain hook missed sends: %d", got)
	}
	if extraHooks.badMeta.Load() != 0 {
		t.Fatal("the plain hook got another message's metadata")
	}
	if dirs, ok := find("hls_directives_total"); !ok || dirs.Value == 0 {
		t.Fatal("HLS adapter recorded no directives")
	}
	var wonTotal, lostTotal int64
	for _, c := range snap.Counters {
		if c.Name == "hls_single_outcomes_total" {
			switch c.Labels["outcome"] {
			case "won":
				wonTotal += c.Value
			case "lost":
				lostTotal += c.Value
			}
		}
	}
	// One winner per single execution: iters blocking singles (whose
	// bodies singleWins counted) plus iters nowait singles, all on the
	// one node instance; everyone else loses.
	if wantWon := singleWins.Load() + iters; wonTotal != wantWon {
		t.Fatalf("single winners = %d, want %d", wonTotal, wantWon)
	}
	if wantLost := int64(2 * iters * 31); lostTotal != wantLost {
		t.Fatalf("single losers = %d, want %d", lostTotal, wantLost)
	}
	if extraObs.arrives.Load() == 0 || extraObs.departs.Load() == 0 {
		t.Fatal("second observer starved")
	}
	if allocs, ok := find("hls_instance_allocs_total"); !ok || allocs.Value == 0 {
		t.Fatal("lazy allocation not observed")
	}
	if puts, ok := find("rma_ops_total"); !ok || puts.Value == 0 {
		t.Fatal("RMA ops not observed")
	}
	if epochs, ok := find("rma_epochs_total"); !ok || epochs.Value == 0 {
		t.Fatal("RMA epochs not observed")
	}

	// The wait histogram's per-shard breakdown is populated — the data
	// the imbalance analysis reads.
	foundBarrierWait := false
	for _, h := range snap.Histograms {
		if h.Name == "hls_directive_wait_ns" && h.Labels["kind"] == "barrier" {
			foundBarrierWait = true
			ranks := 0
			for _, c := range h.PerShardCount {
				if c > 0 {
					ranks++
				}
			}
			if ranks < 32 {
				t.Fatalf("barrier wait histogram covers %d ranks, want 32", ranks)
			}
		}
	}
	if !foundBarrierWait {
		t.Fatal("no barrier wait histogram recorded")
	}
}

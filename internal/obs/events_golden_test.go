package obs_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hls/internal/ckpt"
	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/obs"
	"hls/internal/rma"
	"hls/internal/topology"
	"hls/internal/trace"
)

// TestEventsGolden runs a fixed 4-rank program with every layer that
// writes to a trace recorder switched on — mpi through the tracer, hls
// directives through its SyncAdapter, an rma window and a checkpoint
// coordinator on the same recorder — and pins how many events of each
// (ph, cat, name) it records against testdata/events.golden. Cat "wait"
// is left out: its slices are filtered below a microsecond, so their
// count depends on timing.
func TestEventsGolden(t *testing.T) {
	const n = 4
	tracer := obs.NewTracer(trace.NewRecorder())
	rec := tracer.Recorder()
	m, err := topology.New(topology.Spec{
		Name: "golden", Nodes: 1, SocketsPerNode: 1,
		CoresPerSocket: n, ThreadsPerCore: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Machine: m, Trace: tracer, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	reg := hls.New(w, hls.WithObserver(tracer.Sync()))
	table := hls.Declare[int64](reg, "golden-table", topology.Node, 64)
	co := ckpt.New(ckpt.Config{Dir: t.TempDir(), Trace: rec})
	var register sync.Once

	err = w.Run(func(tk *mpi.Task) error {
		me := tk.Rank()
		peer := me ^ 1
		for _, elems := range []int{16, 1024} { // eager, then rendezvous
			buf := make([]int64, elems)
			if me%2 == 0 {
				mpi.Send(tk, nil, buf, peer, elems)
				mpi.Recv(tk, nil, buf, peer, elems)
			} else {
				mpi.Recv(tk, nil, buf, peer, elems)
				mpi.Send(tk, nil, buf, peer, elems)
			}
		}
		mpi.Barrier(tk, nil)
		sum := []int64{0}
		mpi.Allreduce(tk, nil, []int64{int64(me)}, sum, mpi.OpSum)

		reg.Barrier(tk, table)
		table.Single(tk, func(data []int64) { data[0] = sum[0] })
		table.SingleNowait(tk, func(data []int64) { data[1] = sum[0] })

		win := rma.WinAllocate[int64](tk, nil, 4, rma.WithName("gw"), rma.WithRecorder(rec))
		win.Fence(tk)
		win.Put(tk, []int64{1, 2}, (me+1)%n, 0)
		win.Fence(tk)
		win.Lock(tk, rma.LockExclusive, 0)
		win.Put(tk, []int64{int64(me)}, 0, 2)
		win.Unlock(tk, 0)

		register.Do(func() { co.Register(ckpt.Window(win), ckpt.HLSVar(table)) })
		mpi.Barrier(tk, nil)
		if _, err := co.Checkpoint(tk); err != nil {
			return err
		}
		win.Free(tk)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	got := eventCounts(rec.Events())
	const path = "testdata/events.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("trace event counts differ from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// eventCounts renders one sorted "ph cat name count" line per distinct
// event, leaving out cat "wait".
func eventCounts(events []trace.Event) string {
	counts := make(map[string]int)
	for _, e := range events {
		if e.Cat != "wait" {
			counts[e.Ph+" "+e.Cat+" "+e.Name]++
		}
	}
	lines := make([]string, 0, len(counts))
	for k, c := range counts {
		lines = append(lines, fmt.Sprintf("%s %d\n", k, c))
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

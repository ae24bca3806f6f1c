package metrics

import (
	"testing"
	"time"

	"hls/internal/ckpt"
	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/rma"
	"hls/internal/topology"
)

// mpiTestWorld runs a 4-rank world that exercises every MPI family: a
// ring of eager sends, an Allreduce, a typed strided exchange whose
// packing is elided, and one rendezvous send.
func mpiTestWorld(t *testing.T, a *MPIAdapter) *mpi.World {
	t.Helper()
	w, err := mpi.NewWorld(mpi.Config{NumTasks: 4, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stop := a.Watch(w)
	defer stop()
	col := mpi.TypeVector(64, 1, 2).Commit() // every other element: strided
	err = w.Run(func(task *mpi.Task) error {
		me, n := task.Rank(), task.Size()
		in := make([]int64, 1)
		mpi.Sendrecv(task, nil, []int64{int64(me)}, (me+1)%n, 0, in, (me+n-1)%n, 0)
		mpi.Allreduce(task, nil, []int64{1}, in, mpi.OpSum)
		src, dst := make([]float64, 128), make([]float64, 128)
		mpi.SendrecvTyped(task, nil, src, col, (me+1)%n, 1, dst, col, (me+n-1)%n, 1)
		switch me {
		case 0:
			mpi.Send(task, nil, make([]byte, 64<<10), 1, 2)
		case 1:
			mpi.Recv(task, nil, make([]byte, 64<<10), 0, 2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestMPIAdapter: after a world that touches every family, each exposed
// MPI series equals the value derived from the world's own Stats.
func TestMPIAdapter(t *testing.T) {
	r := New(4)
	a := NewMPIAdapter(r)
	w := mpiTestWorld(t, a)
	st := w.Stats()
	if st.Rendezvous == 0 || st.PackElisions == 0 || st.Collectives == 0 {
		t.Fatalf("test world missed a path: %+v", st)
	}
	want := map[string]int64{
		"mpi_sends_total": st.Messages,
		"mpi_bytes_total": st.Bytes,
		`mpi_messages_protocol_total{protocol="eager"}`:      st.Messages - st.Rendezvous,
		`mpi_messages_protocol_total{protocol="rendezvous"}`: st.Rendezvous,
		"mpi_copies_elided_total":                            st.SameAddrSkips + st.DirectDeliveries,
		"mpi_pack_elisions_total":                            st.PackElisions,
		"mpi_collectives_total":                              st.Collectives,
		"mpi_shared_collectives_total":                       st.SharedCollectives,
		"mpi_two_level_collectives_total":                    st.TwoLevelCollectives,
		"mpi_eager_pool_hits_total":                          st.EagerPoolHits,
		"mpi_eager_pool_misses_total":                        st.EagerPoolMisses,
		"mpi_eager_pool_recycled_bytes_total":                st.EagerPoolRecycledBytes,
		"mpi_eager_pool_outstanding":                         st.EagerPoolOutstanding,
		"mpi_match_probes_total":                             st.MatchProbes,
	}
	snap := r.Snapshot()
	got := make(map[string]int64)
	for _, s := range append(snap.Counters, snap.Gauges...) {
		got[seriesKey(s.Name, s.Labels)] = s.Value
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d from Stats", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("exposed %d MPI series, want %d", len(got), len(want))
	}

	// A nil registry registers nothing, and watching still works.
	d := NewMPIAdapter(nil)
	d.Watch(w)()
}

// TestMPIAdapterSequentialWorlds: worlds watched one after another add
// up after each stop, and a stopped world no longer contributes.
func TestMPIAdapterSequentialWorlds(t *testing.T) {
	r := New(4)
	a := NewMPIAdapter(r)
	sends := func() int64 {
		for _, c := range r.Snapshot().Counters {
			if c.Name == "mpi_sends_total" {
				return c.Value
			}
		}
		t.Fatal("mpi_sends_total not exposed")
		return 0
	}
	w1 := mpiTestWorld(t, a)
	after1 := sends()
	if after1 != w1.Stats().Messages || after1 == 0 {
		t.Fatalf("after world 1: %d sends, Stats says %d", after1, w1.Stats().Messages)
	}
	w2 := mpiTestWorld(t, a)
	if got, want := sends(), w1.Stats().Messages+w2.Stats().Messages; got != want {
		t.Fatalf("after world 2: %d sends, want %d", got, want)
	}

	// A live watch counts as the world runs; its stop keeps the total.
	w3, err := mpi.NewWorld(mpi.Config{NumTasks: 2, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stop := a.Watch(w3)
	before := sends()
	if err := w3.Run(func(task *mpi.Task) error {
		if task.Rank() == 0 {
			mpi.Send(task, nil, []int{1}, 1, 0)
		} else {
			mpi.Recv(task, nil, make([]int, 1), 0, 0)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := sends(); got != before+1 {
		t.Fatalf("live watch: %d sends, want %d", got, before+1)
	}
	stop()
	stop()
	if got := sends(); got != before+1 {
		t.Fatalf("after stop: %d sends, want %d", got, before+1)
	}
}

func TestParseDirectiveKey(t *testing.T) {
	cases := []struct{ key, kind, scope string }{
		{"barrier/node:0/0", "barrier", "node:0"},
		{"single/cache level(3):2/5", "single", "cache level(3):2"},
		{"nowait/numa:1/0", "nowait", "numa:1"},
		{"weird", "weird", ""},
	}
	for _, c := range cases {
		kind, scope := parseDirectiveKey(c.key)
		if kind != c.kind || scope != c.scope {
			t.Errorf("parseDirectiveKey(%q) = %q,%q want %q,%q", c.key, kind, scope, c.kind, c.scope)
		}
	}
}

func TestHLSAdapter(t *testing.T) {
	r := New(8)
	a := NewHLSAdapter(r)

	const key = "barrier/node:0/0"
	a.Arrive(key, 3)
	a.Depart(key, 3)
	a.Depart("nowait/node:0/0", 5) // depart without arrive: zero-wait count

	d := a.waitFor(key)
	if d.Count() != 1 {
		t.Fatalf("directive not timed: wait count %d", d.Count())
	}
	if a.waitFor(key) != d {
		t.Fatal("directive histogram not cached")
	}
	nw := a.waitFor("nowait/node:0/0")
	if nw.Count() != 1 || nw.Sum() != 0 {
		t.Fatal("unmatched depart must count with zero wait")
	}
	// hls_directives_total reads each directive's histogram count.
	snap := r.Snapshot()
	counts := map[string]int64{}
	for _, c := range snap.Counters {
		if c.Name == "hls_directives_total" {
			counts[c.Labels["kind"]+"/"+c.Labels["scope"]] = c.Value
		}
	}
	if counts["barrier/node:0"] != 1 || counts["nowait/node:0"] != 1 || len(counts) != 2 {
		t.Fatalf("hls_directives_total = %v, want barrier and nowait at 1", counts)
	}

	// Nil-registry adapter.
	n := NewHLSAdapter(nil)
	n.Arrive(key, 0)
	n.Depart(key, 0)
}

// hlsTestRun runs a 4-rank world whose node-scope table takes `singles`
// single directives, returning the registry it declared the table in.
func hlsTestRun(t *testing.T, singles int) *hls.Registry {
	t.Helper()
	w, err := mpi.NewWorld(mpi.Config{NumTasks: 4, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	reg := hls.New(w)
	v := hls.Declare[int64](reg, "table", topology.Node, 1<<10)
	if err := w.Run(func(task *mpi.Task) error {
		for i := 0; i < singles; i++ {
			v.Single(task, func(d []int64) { d[0]++ })
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestHLSAdapterWatch: each pulled hls_* series equals the value derived
// from the watched registries' Stats, while watched and after stop.
func TestHLSAdapterWatch(t *testing.T) {
	r := New(4)
	a := NewHLSAdapter(r)
	read := func() map[string]int64 {
		got := make(map[string]int64)
		for _, s := range r.Snapshot().Counters {
			got[seriesKey(s.Name, s.Labels)] = s.Value
		}
		return got
	}
	want := func(st hls.Stats) map[string]int64 {
		return map[string]int64{
			`hls_single_outcomes_total{outcome="won"}`:  st.SinglesExecuted,
			`hls_single_outcomes_total{outcome="lost"}`: st.SinglesSkipped,
			"hls_instance_allocs_total":                 st.InstanceAllocs,
			"hls_shared_bytes":                          st.SharedBytes,
			"hls_duplicate_bytes_avoided":               st.DuplicateBytesAvoided,
			"hls_demotions_total":                       st.Demotions,
			"hls_demoted_extra_bytes":                   st.DemotedExtraBytes,
			"hls_demotion_recovery_ns":                  st.DemotionRecovery.Nanoseconds(),
		}
	}
	check := func(when string, st hls.Stats) {
		t.Helper()
		got := read()
		for k, v := range want(st) {
			if got[k] != v {
				t.Errorf("%s: %s = %d, want %d", when, k, got[k], v)
			}
		}
		if len(got) != len(want(st)) {
			t.Errorf("%s: exposed %d hls series, want %d", when, len(got), len(want(st)))
		}
	}

	reg1 := hlsTestRun(t, 3)
	st1 := reg1.Stats()
	if st1.SinglesExecuted != 3 || st1.SinglesSkipped != 9 || st1.InstanceAllocs != 1 ||
		st1.SharedBytes != 8<<10 || st1.DuplicateBytesAvoided != 3*8<<10 {
		t.Fatalf("registry 1 Stats = %+v", st1)
	}
	stop1 := a.Watch(reg1)
	check("watching registry 1", st1)
	stop1()
	stop1()
	check("after stop", st1)

	reg2 := hlsTestRun(t, 2)
	stop2 := a.Watch(reg2)
	st2 := reg2.Stats()
	sum := hls.Stats{
		SinglesExecuted:       st1.SinglesExecuted + st2.SinglesExecuted,
		SinglesSkipped:        st1.SinglesSkipped + st2.SinglesSkipped,
		InstanceAllocs:        st1.InstanceAllocs + st2.InstanceAllocs,
		SharedBytes:           st1.SharedBytes + st2.SharedBytes,
		DuplicateBytesAvoided: st1.DuplicateBytesAvoided + st2.DuplicateBytesAvoided,
	}
	check("registry 2 live", sum)
	stop2()
	check("both stopped", sum)

	// A nil registry registers nothing, and watching still works.
	NewHLSAdapter(nil).Watch(reg1)()
}

// seriesValues reads every counter and gauge of r by series key.
func seriesValues(r *Registry) map[string]int64 {
	snap := r.Snapshot()
	got := make(map[string]int64)
	for _, s := range append(snap.Counters, snap.Gauges...) {
		got[seriesKey(s.Name, s.Labels)] = s.Value
	}
	return got
}

// checkSeries compares r's series with want.
func checkSeries(t *testing.T, r *Registry, want map[string]int64) {
	t.Helper()
	got := seriesValues(r)
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("exposed %d series, want %d", len(got), len(want))
	}
}

// TestRMAAdapter: every rma_* series equals the value derived from the
// watched window's Stats, the open-epoch gauges read while the window
// is watched, and stop keeps the counts but drops the gauges.
func TestRMAAdapter(t *testing.T) {
	const n = 4
	r := New(n)
	a := NewRMAAdapter(r)
	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var win *rma.Window[int64]
	var openFences int64
	err = w.Run(func(task *mpi.Task) error {
		me := task.Rank()
		x := rma.WinAllocate[int64](task, nil, 4)
		stop := func() {}
		if me == 0 {
			win, stop = x, a.Watch(x)
		}
		x.Fence(task)
		x.Put(task, []int64{1, 2}, (me+1)%n, 0)
		x.Get(task, make([]int64, 1), (me+1)%n, 0)
		x.Fence(task)
		x.Lock(task, rma.LockExclusive, 0)
		x.Accumulate(task, []int64{1}, 0, 0, mpi.OpSum)
		x.Unlock(task, 0)
		mpi.Barrier(task, nil)
		if me == 0 {
			openFences = seriesValues(r)[`rma_open_epochs{kind="fence"}`]
		}
		x.Free(task)
		stop()
		stop()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if openFences != n {
		t.Errorf("live rma_open_epochs{kind=fence} = %d, want %d", openFences, n)
	}
	s := win.Stats()
	if s.Ops[0] != n || s.EpochsClosed[0] != n || s.LockAcquires != n {
		t.Fatalf("test window missed a path: %+v", s)
	}
	want := map[string]int64{
		"rma_lock_publishes_total": s.LockPublishes,
		"rma_lock_acquires_total":  s.LockAcquires,
	}
	for i, op := range rma.OpNames {
		l := map[string]string{"op": op}
		want[seriesKey("rma_ops_total", l)] = s.Ops[i]
		want[seriesKey("rma_op_bytes_total", l)] = s.OpBytes[i]
	}
	for k, kind := range rma.EpochKinds {
		l := map[string]string{"kind": kind}
		want[seriesKey("rma_epochs_total", l)] = s.EpochsClosed[k]
		want[seriesKey("rma_epoch_ns", l)] = s.EpochNs[k]
		want[seriesKey("rma_open_epochs", l)] = 0 // the stopped window left the gauge
	}
	checkSeries(t, r, want)

	// A nil registry registers nothing, and watching still works.
	NewRMAAdapter(nil).Watch(win)()
}

// TestCkptAdapter: every ckpt_* series equals the value derived from
// the watched coordinators' Stats; a stopped coordinator keeps its
// counts and leaves the generation gauges.
func TestCkptAdapter(t *testing.T) {
	const n = 2
	r := New(n)
	a := NewCkptAdapter(r)
	dir := t.TempDir()
	run := func(co *ckpt.Coordinator, fn func(*mpi.Task) error) {
		t.Helper()
		w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		state := make([][]int64, n)
		for i := range state {
			state[i] = []int64{int64(i)}
		}
		co.Register(ckpt.Slice("state", func(t *mpi.Task) []int64 { return state[t.Rank()] }))
		if err := w.Run(fn); err != nil {
			t.Fatal(err)
		}
	}
	saver, restorer := ckpt.New(ckpt.Config{Dir: dir}), ckpt.New(ckpt.Config{Dir: dir})
	stopSaver := a.Watch(saver)
	run(saver, func(task *mpi.Task) error {
		for i := 0; i < 3; i++ {
			if _, err := saver.Checkpoint(task); err != nil {
				return err
			}
		}
		return nil
	})
	stopRestorer := a.Watch(restorer)
	run(restorer, func(task *mpi.Task) error {
		_, err := restorer.Restore(task)
		return err
	})
	s, rs := saver.Stats(), restorer.Stats()
	if s.Checkpoints != 3*n || s.LastGeneration != 3 || rs.Restores != n || rs.RestoredGeneration != 3 {
		t.Fatalf("coordinators missed a path: %+v / %+v", s, rs)
	}
	want := map[string]int64{
		`ckpt_checkpoints_total{result="ok"}`:    s.Checkpoints,
		`ckpt_checkpoints_total{result="error"}`: 0,
		`ckpt_restores_total{result="ok"}`:       rs.Restores,
		`ckpt_restores_total{result="error"}`:    0,
		"ckpt_generations_skipped_total":         0,
		`ckpt_bytes_total{dir="saved"}`:          s.BytesSaved,
		`ckpt_bytes_total{dir="restored"}`:       rs.BytesRestored,
		"ckpt_checkpoint_ns":                     s.CheckpointNs,
		"ckpt_restore_ns":                        rs.RestoreNs,
		"ckpt_last_generation":                   3,
		"ckpt_restored_generation":               3,
	}
	checkSeries(t, r, want)

	stopSaver()
	stopRestorer()
	want["ckpt_last_generation"], want["ckpt_restored_generation"] = 0, 0
	checkSeries(t, r, want)
}

package metrics

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"hls/internal/hls"
	"hls/internal/mpi"
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
	snap := r.Snapshot(WithPerShard())
	got := make(map[string]int64)
	for _, s := range append(snap.Counters, snap.Gauges...) {
		got[seriesKey(s.Name, s.Labels)] = s.Value
		if len(s.PerShard) != 1 || s.PerShard[0] != s.Value {
			t.Errorf("%s: per-shard %v, want the single shard [%d]", s.Name, s.PerShard, s.Value)
		}
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

// TestMPIFamilyNames pins the exposed mpi_* family names: exactly the
// families fed from World.Stats.
func TestMPIFamilyNames(t *testing.T) {
	r := New(1)
	NewMPIAdapter(r)
	got := familyNames(t, r)
	want := []string{
		"mpi_sends_total counter",
		"mpi_bytes_total counter",
		"mpi_messages_protocol_total counter",
		"mpi_copies_elided_total counter",
		"mpi_pack_elisions_total counter",
		"mpi_collectives_total counter",
		"mpi_shared_collectives_total counter",
		"mpi_two_level_collectives_total counter",
		"mpi_eager_pool_hits_total counter",
		"mpi_eager_pool_misses_total counter",
		"mpi_eager_pool_recycled_bytes_total counter",
		"mpi_match_probes_total counter",
		"mpi_eager_pool_outstanding gauge",
	}
	if !slices.Equal(got, want) {
		t.Errorf("mpi families:\n got %q\nwant %q", got, want)
	}
}

// familyNames lists r's families as "name type", in exposition order.
func familyNames(t *testing.T, r *Registry) []string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			got = append(got, f[2]+" "+f[3])
		}
	}
	return got
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

// TestWireFamilyNames pins the exposed wire_* family names: the
// traffic families pulled from wire.Stats, then the pushed clock ones.
func TestWireFamilyNames(t *testing.T) {
	r := New(1)
	NewWireAdapter(r, 2)
	if got, want := familyNames(t, r), []string{
		"wire_frames_total counter",
		"wire_bytes_total counter",
		"wire_reconnects_total counter",
		"wire_batch_frames_total counter",
		"wire_batch_messages_total counter",
		"wire_inflight_frames gauge",
		"wire_clock_offset_ns gauge",
		"wire_rtt_ns histogram",
	}; !slices.Equal(got, want) {
		t.Errorf("wire families:\n got %q\nwant %q", got, want)
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

	d := a.metricsFor(key)
	if d.count.Value() != 1 || d.wait.Count() != 1 {
		t.Fatalf("directive not counted: count %d wait-count %d", d.count.Value(), d.wait.Count())
	}
	if a.metricsFor(key) != d {
		t.Fatal("directive handles not cached")
	}
	nw := a.metricsFor("nowait/node:0/0")
	if nw.count.Value() != 1 || nw.wait.Count() != 1 || nw.wait.Sum() != 0 {
		t.Fatal("unmatched depart must count with zero wait")
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

// TestHLSFamilyNames pins the exposed hls_* family names and types: the
// directive families fed by Arrive/Depart and the families pulled from
// hls.Registry.Stats.
func TestHLSFamilyNames(t *testing.T) {
	r := New(1)
	a := NewHLSAdapter(r)
	a.Arrive("barrier/node:0/0", 0)
	a.Depart("barrier/node:0/0", 0)
	if got, want := familyNames(t, r), []string{
		"hls_single_outcomes_total counter",
		"hls_instance_allocs_total counter",
		"hls_shared_bytes counter",
		"hls_duplicate_bytes_avoided counter",
		"hls_demotions_total counter",
		"hls_demoted_extra_bytes counter",
		"hls_demotion_recovery_ns counter",
		"hls_directives_total counter",
		"hls_directive_wait_ns histogram",
	}; !slices.Equal(got, want) {
		t.Errorf("hls families:\n got %q\nwant %q", got, want)
	}
}

func TestRMAAdapter(t *testing.T) {
	r := New(4)
	a := NewRMAAdapter(r)

	a.EpochOpen("w0", "fence", 0)
	if got := r.Gauge("rma_open_epochs", "", L("kind", "fence")).Value(); got != 1 {
		t.Fatalf("open epochs = %d", got)
	}
	a.EpochClose("w0", "fence", 0)
	h := r.Histogram("rma_epoch_ns", "", L("win", "w0"), L("kind", "fence"))
	if h.Count() != 1 {
		t.Fatalf("epoch histogram count = %d", h.Count())
	}
	if got := r.Gauge("rma_open_epochs", "", L("kind", "fence")).Value(); got != 0 {
		t.Fatalf("open epochs after close = %d", got)
	}

	// Lock epochs fold their per-target suffix into one kind.
	a.EpochOpen("w0", "lock:7", 2)
	a.EpochClose("w0", "lock:7", 2)
	if got := r.Histogram("rma_epoch_ns", "", L("win", "w0"), L("kind", "lock")).Count(); got != 1 {
		t.Fatalf("lock epoch not folded: %d", got)
	}
	// Closing an epoch that never opened records no duration.
	a.EpochClose("w0", "fence", 3)
	if got := h.Count(); got != 1 {
		t.Fatalf("unmatched close must not record a duration: %d", got)
	}

	a.BeginOp("w0", "put", 0, 1, 256)
	a.BeginOp("w0", "get", 1, 0, 64)
	a.BeginOp("w0", "accumulate", 2, 0, 8)
	a.EndOp("w0", "put", 0)
	if a.opsPut.Value() != 1 || a.opsGet.Value() != 1 || a.opsAcc.Value() != 1 {
		t.Fatal("op counters")
	}
	if a.opBytesPut.Value() != 256 || a.opSizeGet.Count() != 1 {
		t.Fatal("op bytes")
	}

	a.Arrive("lock", 0)
	a.Arrive("lock", 1)
	a.Depart("lock", 1)
	if a.lockPublish.Value() != 2 || a.lockAcquire.Value() != 1 {
		t.Fatalf("lock handovers: %d publishes %d acquires", a.lockPublish.Value(), a.lockAcquire.Value())
	}

	// Nil-registry adapter.
	n := NewRMAAdapter(nil)
	n.EpochOpen("w", "fence", 0)
	n.EpochClose("w", "fence", 0)
	n.BeginOp("w", "put", 0, 1, 8)
	n.EndOp("w", "put", 0)
	n.Arrive("k", 0)
	n.Depart("k", 0)
}

func TestCkptAdapter(t *testing.T) {
	r := New(4)
	a := NewCkptAdapter(r)

	// The adapter must satisfy ckpt.Observer structurally.
	var _ interface {
		CheckpointDone(gen uint64, bytes int64, d time.Duration, err error)
		RestoreDone(gen uint64, bytes int64, d time.Duration, skipped int, err error)
		GenerationSkipped(gen uint64, reason string)
	} = a

	a.CheckpointDone(3, 4096, 2*time.Millisecond, nil)
	a.CheckpointDone(4, 100, time.Millisecond, errors.New("rank died"))
	a.RestoreDone(3, 4096, 5*time.Millisecond, 1, nil)
	a.GenerationSkipped(4, "rank payload missing or corrupt")
	a.GenerationSkipped(5, "uncommitted staging directory")

	if got := r.Counter("ckpt_checkpoints_total", "", L("result", "ok")).Value(); got != 1 {
		t.Errorf("checkpoints ok = %d", got)
	}
	if got := r.Counter("ckpt_checkpoints_total", "", L("result", "error")).Value(); got != 1 {
		t.Errorf("checkpoints error = %d", got)
	}
	if got := r.Counter("ckpt_restores_total", "", L("result", "ok")).Value(); got != 1 {
		t.Errorf("restores ok = %d", got)
	}
	if got := r.Counter("ckpt_generations_skipped_total", "").Value(); got != 2 {
		t.Errorf("skipped = %d", got)
	}
	if got := r.Counter("ckpt_bytes_total", "", L("dir", "saved")).Value(); got != 4096 {
		t.Errorf("saved bytes = %d", got)
	}
	if got := r.Counter("ckpt_bytes_total", "", L("dir", "restored")).Value(); got != 4096 {
		t.Errorf("restored bytes = %d", got)
	}
	if got := r.Gauge("ckpt_last_generation", "").Value(); got != 3 {
		t.Errorf("last generation = %d", got)
	}
	if got := r.Gauge("ckpt_restored_generation", "").Value(); got != 3 {
		t.Errorf("restored generation = %d", got)
	}
	if h := r.Histogram("ckpt_checkpoint_ns", ""); h.Count() != 1 {
		t.Errorf("checkpoint histogram count = %d", h.Count())
	}

	// Failed outcomes must not move the byte counters or gauges.
	if got := r.Gauge("ckpt_last_generation", "").Value(); got != 3 {
		t.Errorf("error outcome moved the generation gauge: %d", got)
	}

	// Nil-registry adapter.
	n := NewCkptAdapter(nil)
	n.CheckpointDone(1, 1, time.Millisecond, nil)
	n.RestoreDone(1, 1, time.Millisecond, 0, nil)
	n.GenerationSkipped(1, "x")
}

package obs_test

import (
	"math"
	"testing"
	"time"

	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/obs"
	"hls/internal/topology"
	"hls/internal/trace"
)

const stragglerRanks = 4

// runStraggler runs a four-rank workload under tracing and measures every
// blocking call directly: a rotating straggler works 6x longer before a
// Single directive (directive imbalance), then an eager ring (late
// sender) and a rendezvous pairwise exchange (late receiver).
// sampleEvery > 1 installs trace.WithSampling.
//
// The work is a sleep, not a busy loop: it sits outside every measured
// bracket either way, and spinning ranks would oversubscribe a host with
// fewer cores than ranks. There a receiver woken by direct delivery waits
// for a CPU, which the measurement sees and the trace's delivery instant
// does not.
func runStraggler(t *testing.T, rounds, sampleEvery int) (*obs.Tracer, [stragglerRanks]time.Duration) {
	t.Helper()
	opts := []trace.RecorderOption{trace.WithMaxEvents(1 << 17)}
	if sampleEvery > 1 {
		opts = append(opts, trace.WithSampling(sampleEvery))
	}
	tracer := obs.NewTracer(trace.NewRecorder(opts...))
	m, err := topology.New(topology.Spec{
		Name: "straggler", Nodes: 1, SocketsPerNode: 1,
		CoresPerSocket: stragglerRanks, ThreadsPerCore: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(mpi.Config{
		NumTasks: stragglerRanks, Machine: m, Trace: tracer, Timeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	table := hls.Declare[int64](hls.New(w, hls.WithObserver(tracer.Sync())), "straggler-table", topology.Node, 512)

	var measured [stragglerRanks]time.Duration
	err = w.Run(func(tk *mpi.Task) error {
		rank, n := tk.Rank(), tk.Size()
		block := func(fn func()) {
			t0 := time.Now()
			fn()
			measured[rank] += time.Since(t0)
		}
		eager := make([]int64, 16)    // 128 B, under the eager limit
		rendez := make([]int64, 1024) // 8 KiB, past it
		for r := 0; r < rounds; r++ {
			compute := 200 * time.Microsecond
			if rank == r%n {
				compute = 1200 * time.Microsecond
			}
			time.Sleep(compute)
			block(func() {
				table.Single(tk, func(data []int64) {
					for i := range data {
						data[i] = int64(r)
					}
				})
			})

			// The straggler also sends late into the ring, and the next
			// rank reaches the rendezvous exchange late, so the
			// late-sender and late-receiver buckets carry real time too.
			right, left := (rank+1)%n, (rank+n-1)%n
			if rank == r%n {
				time.Sleep(300 * time.Microsecond)
			}
			mpi.Send(tk, nil, eager, right, r)
			block(func() { mpi.Recv(tk, nil, eager, left, r) })

			if rank == (r+1)%n {
				time.Sleep(300 * time.Microsecond)
			}
			partner := rank ^ 1
			if rank%2 == 0 {
				block(func() { mpi.Send(tk, nil, rendez, partner, rounds+r) })
				block(func() { mpi.Recv(tk, nil, rendez, partner, 2*rounds+r) })
			} else {
				block(func() { mpi.Recv(tk, nil, rendez, partner, rounds+r) })
				block(func() { mpi.Send(tk, nil, rendez, partner, 2*rounds+r) })
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tracer, measured
}

// TestAnalyzeMatchesMeasuredBlockedTime checks the wait attribution
// against ground truth: every rank's Analyze total must re-derive its
// directly measured blocked time within 5%, plus a 2 ms floor for the
// scheduler wake-up latency the measurement sees but the trace's
// post/deliver corners exclude. A second pass under 1/8 span sampling
// must record well under 3/4 of the unsampled event volume.
func TestAnalyzeMatchesMeasuredBlockedTime(t *testing.T) {
	const rounds = 24
	tracer, measured := runStraggler(t, rounds, 1)
	if d := tracer.Dropped(); d != 0 {
		t.Fatalf("recorder dropped %d events", d)
	}
	events := tracer.Recorder().Events()
	sampled, _ := runStraggler(t, rounds, 8)
	if full, s := len(events), len(sampled.Recorder().Events()); s == 0 || 4*s >= 3*full {
		t.Errorf("1/8 span sampling kept %d of %d events, want fewer than 3/4", s, full)
	}

	if raceEnabled {
		return
	}
	attributed := map[int]float64{}
	for _, rw := range obs.Analyze(events).Ranks {
		attributed[rw.Rank] = rw.TotalUs()
	}
	for r, d := range measured {
		want := float64(d.Nanoseconds()) / 1e3
		if got := attributed[r]; math.Abs(got-want) > 0.05*want+2000 {
			t.Errorf("rank %d: attributed %.0fus, measured %.0fus blocked", r, got, want)
		}
	}
}

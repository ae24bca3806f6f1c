package mpi

import (
	"fmt"
	"testing"
)

// BenchmarkPingPong measures round-trip latency by payload size, covering
// both the eager and the rendezvous protocol.
func BenchmarkPingPong(b *testing.B) {
	for _, elems := range []int{1, 64, 512, 8192} {
		b.Run(fmt.Sprintf("float64x%d", elems), func(b *testing.B) {
			w, err := NewWorld(Config{NumTasks: 2})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(elems * 8 * 2))
			b.ReportAllocs() // the eager datapath must show 0 allocs/op
			b.ResetTimer()
			err = w.Run(func(task *Task) error {
				buf := make([]float64, elems)
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
	}
}

// BenchmarkEagerRendezvousCrossover sweeps the payload size across the
// per-World eager/rendezvous threshold (Config.EagerLimit) at several
// threshold settings, so the protocol switch — buffered copy vs
// synchronizing handoff — shows up as a latency step inside one sweep.
func BenchmarkEagerRendezvousCrossover(b *testing.B) {
	for _, limit := range []int{512, DefaultEagerLimit, 32 << 10} {
		for _, bytes := range []int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10} {
			elems := bytes / 8
			proto := "eager"
			if bytes > limit {
				proto = "rendezvous"
			}
			b.Run(fmt.Sprintf("limit%d/%dB/%s", limit, bytes, proto), func(b *testing.B) {
				w, err := NewWorld(Config{NumTasks: 2, EagerLimit: limit})
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(bytes * 2))
				b.ResetTimer()
				err = w.Run(func(task *Task) error {
					buf := make([]float64, elems)
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
				b.StopTimer()
				wantRendezvous := bytes > limit
				if gotR := w.Stats().Rendezvous > 0; gotR != wantRendezvous {
					b.Fatalf("rendezvous used = %v, want %v (bytes=%d limit=%d)", gotR, wantRendezvous, bytes, limit)
				}
			})
		}
	}
}

// BenchmarkBarrierScaling measures the dissemination barrier by world
// size.
func BenchmarkBarrierScaling(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("tasks%d", n), func(b *testing.B) {
			w, err := NewWorld(Config{NumTasks: n})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
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
	}
}

// BenchmarkBcastTree measures the binomial broadcast of a 1 KiB payload.
func BenchmarkBcastTree(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("tasks%d", n), func(b *testing.B) {
			w, err := NewWorld(Config{NumTasks: n})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			err = w.Run(func(task *Task) error {
				buf := make([]float64, 128)
				for i := 0; i < b.N; i++ {
					Bcast(task, nil, buf, 0)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAllreduceAlgorithms compares the two channel allreduce
// algorithms on 32 tasks: reduce+broadcast (Allreduce under
// CollChannels, which keeps it off the shared fast path) against
// recursive doubling (AllreduceRD).
func BenchmarkAllreduceAlgorithms(b *testing.B) {
	for _, alg := range []struct {
		name string
		fn   func(t *Task, send, recv []float64)
	}{
		{"ReduceBcast", func(t *Task, send, recv []float64) { Allreduce(t, nil, send, recv, OpSum) }},
		{"RecursiveDoubling", func(t *Task, send, recv []float64) { AllreduceRD(t, nil, send, recv, OpSum) }},
	} {
		b.Run(alg.name, func(b *testing.B) {
			w, err := NewWorld(Config{NumTasks: 32, Collectives: CollChannels})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			err = w.Run(func(task *Task) error {
				send := []float64{float64(task.Rank())}
				recv := make([]float64, 1)
				for i := 0; i < b.N; i++ {
					alg.fn(task, send, recv)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

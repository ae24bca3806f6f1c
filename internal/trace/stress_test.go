package trace

import (
	"io"
	"sync"
	"testing"
)

// TestRecorderConcurrentFlushAppend hammers a bounded recorder with
// every append API from many goroutines while others concurrently flush
// (WriteJSON), snapshot (Events) and poll Dropped/Len — the shape of the
// world-aggregation pull racing a still-running workload. Run under
// -race in CI.
func TestRecorderConcurrentFlushAppend(t *testing.T) {
	r := NewRecorder(WithMaxEvents(256))
	send, msg, cts := r.Intern("send", "msg"), r.Intern("msg", "msg"), r.Intern("cts", "msg")
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				switch i % 5 {
				case 0:
					r.FlowStartNs(tid, send, uint64(tid*perWriter+i), r.NowNs(), 64)
				case 1:
					r.FlowEndNs(tid, send, uint64(tid*perWriter+i), r.NowNs(), 0)
				case 2:
					r.FlowPairNs(msg, uint64(tid*perWriter+i), tid, r.NowNs(), 8, tid+1, r.NowNs(), 0)
				case 3:
					r.SliceNs(tid, "wait", "wait", r.NowNs()-10, r.NowNs(), nil)
				case 4:
					r.InstantNs(tid, cts, r.NowNs(), 1)
				}
			}
		}(w)
	}

	var flushers sync.WaitGroup
	for f := 0; f < 3; f++ {
		flushers.Add(1)
		go func() {
			defer flushers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := r.WriteJSON(io.Discard); err != nil {
					t.Error(err)
					return
				}
				_ = r.Events()
				_ = r.Dropped()
				_ = r.Len()
			}
		}()
	}

	wg.Wait()
	close(stop)
	flushers.Wait()

	total := int64(r.Len()) + r.Dropped()
	// FlowPairNs adds two events; every other API adds one.
	want := int64(writers * perWriter * 6 / 5)
	if total != want {
		t.Fatalf("events held+dropped = %d, want %d", total, want)
	}
	if got := len(r.Events()); got != 256 {
		t.Fatalf("bounded recorder holds %d events, want 256", got)
	}
}

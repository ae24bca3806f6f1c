package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hls/internal/topology"
	"hls/internal/wire"
)

// expectTypedError runs fn expecting a fatal *Error whose message
// contains want.
func expectTypedError(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no error; want one containing %q", want)
		}
		e, ok := r.(*Error)
		if !ok {
			panic(r)
		}
		if !strings.Contains(e.Msg, want) {
			t.Fatalf("error %q does not contain %q", e.Msg, want)
		}
	}()
	fn()
}

func TestDatatypeConstructors(t *testing.T) {
	v := TypeVector(4, 2, 8).Commit()
	if v.Size() != 8 || v.Extent() != 3*8+2 {
		t.Errorf("vector: size %d extent %d", v.Size(), v.Extent())
	}
	if !v.strided() {
		t.Error("vector with stride > blocklen should be strided")
	}
	// stride == blocklen degenerates to contiguous, as does count == 1.
	if TypeVector(4, 2, 2).strided() || TypeVector(1, 16, 100).strided() {
		t.Error("contiguous vectors not normalized")
	}
	c := TypeContiguous(10)
	if c.Size() != 10 || c.Extent() != 10 || c.strided() {
		t.Errorf("contiguous: size %d extent %d strided %v", c.Size(), c.Extent(), c.strided())
	}
	s := TypeSubarray([]int{4, 6}, []int{2, 3}, []int{1, 2}).Commit()
	if s.Size() != 6 || s.Extent() != 24 {
		t.Errorf("subarray: size %d extent %d", s.Size(), s.Extent())
	}
	// A full-array subarray at offset zero is contiguous.
	if TypeSubarray([]int{4, 6}, []int{4, 6}, []int{0, 0}).strided() {
		t.Error("whole-array subarray not normalized")
	}
	// The same region at a nonzero offset is not (one run, shifted).
	if !TypeSubarray([]int{24}, []int{6}, []int{3}).strided() {
		t.Error("offset subarray wrongly normalized")
	}
	if !TypeVector(3, 2, 5).Commit().Committed() || TypeVector(3, 2, 5).Committed() {
		t.Error("Commit bookkeeping wrong")
	}
}

func TestDatatypeZeroSize(t *testing.T) {
	// Zero-length blocks and zero counts are legal and transfer nothing.
	for _, d := range []*Datatype{
		TypeVector(3, 0, 5),
		TypeVector(0, 4, 5),
		TypeContiguous(0),
		TypeSubarray([]int{4, 4}, []int{0, 2}, []int{1, 1}),
	} {
		if d.Size() != 0 || d.Extent() != 0 {
			t.Errorf("%s: size %d extent %d, want 0/0", d.kind, d.Size(), d.Extent())
		}
		if d.strided() {
			t.Errorf("%s: empty layout should normalize to contiguous", d.kind)
		}
	}
	run(t, 2, func(task *Task) error {
		dt := TypeVector(3, 0, 5).Commit()
		if task.Rank() == 0 {
			SendTyped(task, nil, make([]float64, 16), dt, 1, 0)
		} else {
			buf := make([]float64, 16)
			st := RecvTyped(task, nil, buf, dt, 0, 0)
			if st.Count != 0 || st.Bytes != 0 {
				return fmt.Errorf("empty typed message: status %+v", st)
			}
		}
		return nil
	})
}

func TestDatatypeErrors(t *testing.T) {
	expectTypedError(t, "blocks overlap", func() { TypeVector(3, 4, 2) })
	expectTypedError(t, "negative count", func() { TypeVector(-1, 1, 1) })
	expectTypedError(t, "negative element count", func() { TypeContiguous(-1) })
	expectTypedError(t, "out of range", func() { TypeSubarray(nil, nil, nil) })
	expectTypedError(t, "exceeds size", func() {
		TypeSubarray([]int{4}, []int{3}, []int{2})
	})

	// Using an uncommitted datatype is a usage error.
	err := runErr(2, func(task *Task) error {
		dt := TypeVector(2, 1, 4)
		if task.Rank() == 0 {
			SendTyped(task, nil, make([]int32, 8), dt, 1, 0)
		} else {
			RecvTyped(task, nil, make([]int32, 8), dt, 0, 0)
		}
		return nil
	})
	var e *Error
	if !errors.As(err, &e) || !strings.Contains(e.Msg, "not committed") {
		t.Fatalf("uncommitted datatype: %v", err)
	}

	// A buffer shorter than the datatype extent is a usage error.
	err = runErr(1, func(task *Task) error {
		IsendTyped(task, nil, make([]int32, 7), TypeVector(2, 1, 8).Commit(), 0, 0)
		return nil
	})
	if !errors.As(err, &e) || !strings.Contains(e.Msg, "shorter than datatype extent") {
		t.Fatalf("short buffer: %v", err)
	}
}

// fillSeq numbers a buffer so corruption and misplacement are visible.
func fillSeq(b []float64) {
	for i := range b {
		b[i] = float64(i + 1)
	}
}

func TestDatatypePackKernels(t *testing.T) {
	src := make([]float64, 64)
	fillSeq(src)
	sb := bytesOf(src)
	dt := TypeSubarray([]int{4, 16}, []int{3, 5}, []int{1, 7}).Commit()
	packed := make([]float64, dt.Size())
	dtPack(bytesOf(packed), sb, dt, 8)
	want := []float64{
		24, 25, 26, 27, 28,
		40, 41, 42, 43, 44,
		56, 57, 58, 59, 60,
	}
	for i, w := range want {
		if packed[i] != w {
			t.Fatalf("packed[%d] = %v, want %v (%v)", i, packed[i], w, packed)
		}
	}
	// Unpack scatters it back.
	back := make([]float64, 64)
	dtUnpack(bytesOf(back), bytesOf(packed), dt, 8)
	for i, w := range want {
		if back[int(w)-1] != w {
			t.Fatalf("unpacked element %d missing: %v", i, back)
		}
	}
	// Range pack over any chunking must equal the whole pack.
	for _, chunk := range []int{1, 2, 4, 7, 15} {
		got := make([]float64, dt.Size())
		for lo := 0; lo < dt.Size(); lo += chunk {
			hi := min(lo+chunk, dt.Size())
			dtPackRange(bytesOf(got[lo:hi]), sb, dt, 8, lo, hi)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: packed[%d] = %v, want %v", chunk, i, got[i], want[i])
			}
		}
		// And the inverse chunked unpack.
		rb := make([]float64, 64)
		for lo := 0; lo < dt.Size(); lo += chunk {
			hi := min(lo+chunk, dt.Size())
			dtUnpackRange(bytesOf(rb), bytesOf(got[lo:hi]), dt, 8, lo, hi)
		}
		for i := range back {
			if rb[i] != back[i] {
				t.Fatalf("chunk %d: unpack diverges at %d", chunk, i)
			}
		}
	}
	// dtCopy strided-to-strided must agree with pack-then-unpack.
	ddt := TypeVector(15, 1, 4).Commit()
	direct := make([]float64, ddt.Extent())
	dtCopy(bytesOf(direct), ddt, sb, dt, 8)
	viaPack := make([]float64, ddt.Extent())
	dtUnpack(bytesOf(viaPack), bytesOf(packed), ddt, 8)
	for i := range direct {
		if direct[i] != viaPack[i] {
			t.Fatalf("dtCopy diverges from pack+unpack at %d: %v vs %v", i, direct[i], viaPack[i])
		}
	}
}

func TestTypedSendRecvInProcess(t *testing.T) {
	// A strided vector lands contiguously; a contiguous payload scatters
	// into a subarray; strided-to-strided exchanges elide packing in both
	// directions. Sizes beyond the eager limit exercise rendezvous.
	for _, elems := range []int{8, 4096} {
		elems := elems
		t.Run(fmt.Sprintf("elems=%d", elems), func(t *testing.T) {
			w := run(t, 2, func(task *Task) error {
				sdt := TypeVector(elems, 1, 2).Commit() // every other element
				src := make([]float64, sdt.Extent())
				fillSeq(src)
				if task.Rank() == 0 {
					SendTyped(task, nil, src, sdt, 1, 0)
					// Typed receive of a contiguous reply.
					back := make([]float64, sdt.Extent())
					RecvTyped(task, nil, back, sdt, 1, 1)
					for i := 0; i < elems; i++ {
						if back[2*i] != src[2*i]+0.5 {
							return fmt.Errorf("back[%d] = %v", 2*i, back[2*i])
						}
					}
				} else {
					flat := make([]float64, elems)
					st := RecvTyped(task, nil, flat, nil, 0, 0)
					if st.Count != elems {
						return fmt.Errorf("count %d, want %d", st.Count, elems)
					}
					for i := range flat {
						if flat[i] != float64(2*i+1) {
							return fmt.Errorf("flat[%d] = %v", i, flat[i])
						}
					}
					for i := range flat {
						flat[i] += 0.5
					}
					SendTyped(task, nil, flat, nil, 0, 1)
				}
				return nil
			})
			if w.Stats().PackElisions != 0 {
				// One side contiguous still needs a single strided pass, but
				// an intermediate only exists when the message was packed:
				// posted-receive delivery elides it.
				t.Logf("pack elisions: %d", w.Stats().PackElisions)
			}
		})
	}
}

func TestTypedStridedToStridedElision(t *testing.T) {
	const n = 2048 // 16 KiB packed: rendezvous, no eager intermediate
	w := run(t, 2, func(task *Task) error {
		sdt := TypeSubarray([]int{64, 64}, []int{32, 64}, []int{16, 0}).Commit()
		rdt := TypeSubarray([]int{64, 64}, []int{64, 32}, []int{0, 16}).Commit()
		if sdt.Size() != n || rdt.Size() != n {
			return fmt.Errorf("layout sizes %d/%d", sdt.Size(), rdt.Size())
		}
		if task.Rank() == 0 {
			src := make([]float64, 64*64)
			fillSeq(src)
			// Let the receiver post first so delivery runs strided-to-strided.
			time.Sleep(10 * time.Millisecond)
			SendTyped(task, nil, src, sdt, 1, 0)
		} else {
			dst := make([]float64, 64*64)
			req := IrecvTyped(task, nil, dst, rdt, 0, 0)
			st := req.Wait()
			putRequest(req)
			if st.Count != n {
				return fmt.Errorf("count %d", st.Count)
			}
			// Element k of the packed stream is src[(16+k/64)*64 + k%64],
			// landing at dst[(k/32)*64 + 16 + k%32].
			for k := 0; k < n; k++ {
				want := float64((16+k/64)*64 + k%64 + 1)
				got := dst[(k/32)*64+16+k%32]
				if got != want {
					return fmt.Errorf("element %d: got %v want %v", k, got, want)
				}
			}
		}
		return nil
	})
	if w.Stats().PackElisions == 0 {
		t.Error("strided-to-strided rendezvous delivery did not elide packing")
	}
}

func TestTypedForcePackBitwiseIdentical(t *testing.T) {
	// The ablation knob must not change results: run the same exchange
	// with elision enabled and with forced packing, compare buffers.
	exchange := func(force bool) []float64 {
		out := make([]float64, 48*48)
		w, err := Run(Config{NumTasks: 2, Timeout: 30 * time.Second, ForcePack: force}, func(task *Task) error {
			sdt := TypeSubarray([]int{48, 48}, []int{24, 24}, []int{12, 12}).Commit()
			if task.Rank() == 0 {
				src := make([]float64, 48*48)
				fillSeq(src)
				SendTyped(task, nil, src, sdt, 1, 0)
			} else {
				RecvTyped(task, nil, out, sdt, 0, 0)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if force && w.Stats().PackElisions != 0 {
			t.Fatalf("ForcePack still elided %d packs", w.Stats().PackElisions)
		}
		return out
	}
	a, b := exchange(false), exchange(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ablation changed results at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTypedWildcardSource(t *testing.T) {
	run(t, 3, func(task *Task) error {
		rdt := TypeVector(4, 2, 4).Commit()
		switch task.Rank() {
		case 0:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				buf := make([]int64, rdt.Extent())
				st := RecvTyped(task, nil, buf, rdt, AnySource, AnyTag)
				if st.Count != 8 {
					return fmt.Errorf("count %d", st.Count)
				}
				for k := 0; k < 8; k++ {
					if got := buf[(k/2)*4+k%2]; got != int64(st.Source*100+k) {
						return fmt.Errorf("from %d: element %d = %d", st.Source, k, got)
					}
				}
				seen[st.Source] = true
			}
			if !seen[1] || !seen[2] {
				return fmt.Errorf("sources: %v", seen)
			}
		default:
			vals := make([]int64, 8)
			for k := range vals {
				vals[k] = int64(task.Rank()*100 + k)
			}
			Send(task, nil, vals, 0, task.Rank())
		}
		return nil
	})
}

func TestTypedTruncation(t *testing.T) {
	// A typed receive selecting fewer elements than the message carries
	// fails like the contiguous truncation error.
	err := runErr(2, func(task *Task) error {
		if task.Rank() == 0 {
			Send(task, nil, make([]int32, 16), 1, 0)
		} else {
			rdt := TypeVector(4, 2, 4).Commit() // selects 8 < 16
			RecvTyped(task, nil, make([]int32, rdt.Extent()), rdt, 0, 0)
		}
		return nil
	})
	var e *Error
	if !errors.As(err, &e) || !strings.Contains(e.Msg, "truncated") {
		t.Fatalf("typed truncation: %v", err)
	}
}

func TestTypedSendrecvSameBufferDifferentLayouts(t *testing.T) {
	// Sendrecv between two disjoint subarrays of one buffer: the
	// same-address skip must not trigger (layouts differ), the strided
	// copy must run.
	run(t, 1, func(task *Task) error {
		buf := make([]float64, 8*8)
		fillSeq(buf)
		left := TypeSubarray([]int{8, 8}, []int{8, 2}, []int{0, 0}).Commit()
		right := TypeSubarray([]int{8, 8}, []int{8, 2}, []int{0, 6}).Commit()
		SendrecvTyped(task, nil, buf, left, 0, 0, buf, right, 0, 0)
		for r := 0; r < 8; r++ {
			for c := 0; c < 2; c++ {
				if buf[r*8+6+c] != buf[r*8+c] {
					return fmt.Errorf("row %d col %d: %v != %v", r, c, buf[r*8+6+c], buf[r*8+c])
				}
			}
		}
		return nil
	})
}

func TestTypedMixedTrafficStress(t *testing.T) {
	// Typed and contiguous traffic interleaved on one communicator across
	// eager and rendezvous sizes; run under -race this doubles as the
	// concurrency check on the typed datapaths.
	const rounds = 40
	w := run(t, 4, func(task *Task) error {
		rng := rand.New(rand.NewSource(int64(task.Rank()) + 7))
		partner := task.Rank() ^ 1
		dt := TypeVector(96, 4, 8).Commit() // 384 elems, extent 764
		for i := 0; i < rounds; i++ {
			typed := rng.Intn(2) == 0
			reqs := make([]*Request, 0, 2)
			src := make([]int64, dt.Extent())
			dst := make([]int64, dt.Extent())
			for k := range src {
				src[k] = int64(task.Rank()*1000 + i)
			}
			if typed {
				reqs = append(reqs, IrecvTyped(task, nil, dst, dt, partner, i))
				reqs = append(reqs, IsendTyped(task, nil, src, dt, partner, i))
			} else {
				reqs = append(reqs, Irecv(task, nil, dst[:dt.Size()], partner, i))
				reqs = append(reqs, Isend(task, nil, src[:dt.Size()], partner, i))
			}
			Waitall(reqs)
			// Element 0 of the packed stream lands at offset 0 under both
			// the contiguous receive and the vector's first block.
			want := int64(partner*1000 + i)
			if dst[0] != want {
				return fmt.Errorf("rank %d round %d: got %d want %d", task.Rank(), i, dst[0], want)
			}
		}
		return nil
	})
	if w.Stats().EagerPoolOutstanding != 0 {
		t.Errorf("%d eager buffers leaked", w.Stats().EagerPoolOutstanding)
	}
}

func TestTypedCopyAndApply(t *testing.T) {
	run(t, 1, func(task *Task) error {
		src := make([]float64, 32)
		fillSeq(src)
		sdt := TypeVector(8, 2, 4).Commit()
		dst := make([]float64, 16)
		if n := TypedCopy(task, dst, nil, src, sdt, "test"); n != 16 {
			return fmt.Errorf("copied %d", n)
		}
		for i := 0; i < 16; i++ {
			want := float64((i/2)*4 + i%2 + 1)
			if dst[i] != want {
				return fmt.Errorf("dst[%d] = %v, want %v", i, dst[i], want)
			}
		}
		// TypedApply folds with an operator instead of overwriting.
		acc := make([]float64, 16)
		TypedApply(task, acc, nil, src, sdt, OpSum, "test")
		TypedApply(task, acc, nil, src, sdt, OpSum, "test")
		for i := range acc {
			if acc[i] != 2*dst[i] {
				return fmt.Errorf("acc[%d] = %v, want %v", i, acc[i], 2*dst[i])
			}
		}
		return nil
	})
}

func TestTypedOverWire(t *testing.T) {
	// Typed traffic across the loopback transport: an eager typed send
	// (packs into a pooled frame), a rendezvous one large enough to
	// stream as multiple DataSeg chunks, and a typed receive of each.
	const big = 16384 // 128 KiB packed float64 > wireTypedChunk
	fn := func(task *Task) error {
		switch task.Rank() {
		case 0:
			sdt := TypeVector(32, 1, 3).Commit()
			src := make([]float64, sdt.Extent())
			fillSeq(src)
			SendTyped(task, nil, src, sdt, 2, 1) // eager over the wire
			bdt := TypeVector(big, 1, 2).Commit()
			bsrc := make([]float64, bdt.Extent())
			fillSeq(bsrc)
			SendTyped(task, nil, bsrc, bdt, 2, 2) // pipelined rendezvous
		case 2:
			flat := make([]float64, 32)
			st := RecvTyped(task, nil, flat, nil, 0, 1)
			if st.Count != 32 {
				return fmt.Errorf("eager count %d", st.Count)
			}
			for i := range flat {
				if flat[i] != float64(3*i+1) {
					return fmt.Errorf("eager flat[%d] = %v", i, flat[i])
				}
			}
			rdt := TypeVector(big, 1, 2).Commit() // scatter back out strided
			dst := make([]float64, rdt.Extent())
			st = RecvTyped(task, nil, dst, rdt, 0, 2)
			if st.Count != big {
				return fmt.Errorf("rendezvous count %d", st.Count)
			}
			for k := 0; k < big; k++ {
				if dst[2*k] != float64(2*k+1) {
					return fmt.Errorf("rendezvous dst[%d] = %v", 2*k, dst[2*k])
				}
			}
		}
		return nil
	}
	w0, w1, err0, err1 := runWirePair(t, 2, fn)
	if err0 != nil || err1 != nil {
		t.Fatalf("err0=%v err1=%v", err0, err1)
	}
	for i, w := range []*World{w0, w1} {
		if out := w.Stats().EagerPoolOutstanding; out != 0 {
			t.Errorf("world %d: %d eager buffers leaked", i, out)
		}
	}
}

// runWirePairForcePack is runWirePair with Config.ForcePack set in both
// worlds, pinning the whole-pack wire fallback.
func runWirePairForcePack(t *testing.T, perNode int, fn func(*Task) error) (err0, err1 error) {
	t.Helper()
	m, err := topology.New(topology.Spec{
		Name:           "wiretest",
		Nodes:          2,
		SocketsPerNode: 1,
		CoresPerSocket: perNode,
		ThreadsPerCore: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}
	mk := func(self int, ln net.Listener) *World {
		tr, err := wire.NewTCP(wire.Config{Addrs: addrs, Self: self, WorldKey: 42}, ln)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorld(Config{
			NumTasks:  2 * perNode,
			Machine:   m,
			Wire:      &WireConfig{Transport: tr},
			ForcePack: true,
			Timeout:   20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w0, w1 := mk(0, ln0), mk(1, ln1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); err0 = w0.Run(fn) }()
	go func() { defer wg.Done(); err1 = w1.Run(fn) }()
	wg.Wait()
	return err0, err1
}

func TestTypedOverWireForcePack(t *testing.T) {
	// With ForcePack the wire rendezvous falls back to one whole-pack
	// Data frame; results must be identical.
	const n = 4096
	fn := func(task *Task) error {
		dt := TypeVector(n, 1, 2).Commit()
		switch task.Rank() {
		case 0:
			src := make([]float64, dt.Extent())
			fillSeq(src)
			SendTyped(task, nil, src, dt, 2, 0)
		case 2:
			dst := make([]float64, dt.Extent())
			if st := RecvTyped(task, nil, dst, dt, 0, 0); st.Count != n {
				return fmt.Errorf("count %d", st.Count)
			}
			for k := 0; k < n; k++ {
				if dst[2*k] != float64(2*k+1) {
					return fmt.Errorf("dst[%d] = %v", 2*k, dst[2*k])
				}
			}
		}
		return nil
	}
	err0, err1 := runWirePairForcePack(t, 2, fn)
	if err0 != nil || err1 != nil {
		t.Fatalf("err0=%v err1=%v", err0, err1)
	}
}

func TestDatatypeCanonicalForm(t *testing.T) {
	// A z-normal face of a 34³ block: the count-1 z dimension drops out,
	// leaving one outer dimension over 32-element rows.
	zface := TypeSubarray([]int{34, 34, 34}, []int{1, 32, 32}, []int{1, 1, 1})
	if len(zface.dims) != 1 || zface.run != 32 {
		t.Errorf("z-face: %d outer dims, run %d; want 1 dim over runs of 32", len(zface.dims), zface.run)
	}
	// Eight single elements 8 apart, built three ways: a vector, and
	// subarrays whose dimensions fold into one.
	v := TypeVector(8, 1, 8)
	for _, s := range []*Datatype{
		TypeSubarray([]int{4, 2, 8}, []int{4, 2, 1}, []int{0, 0, 0}),
		TypeSubarray([]int{1, 8, 8}, []int{1, 8, 1}, []int{0, 0, 0}),
	} {
		if !sameLayout(v, s) {
			t.Errorf("subarray dims %v run %d: not the vector's layout (dims %v run %d)", s.dims, s.run, v.dims, v.run)
		}
	}
}

func TestTypedSameAddrSkipAcrossConstructors(t *testing.T) {
	// A vector and a subarray selecting the same elements of one buffer:
	// a same-buffer SendrecvTyped is a no-op, and the skip must see it.
	w := run(t, 1, func(task *Task) error {
		buf := make([]float64, 64)
		fillSeq(buf)
		v := TypeVector(8, 1, 8).Commit()
		s := TypeSubarray([]int{4, 2, 8}, []int{4, 2, 1}, []int{0, 0, 0}).Commit()
		SendrecvTyped(task, nil, buf, v, 0, 0, buf, s, 0, 0)
		for i := range buf {
			if buf[i] != float64(i+1) {
				return fmt.Errorf("buf[%d] = %v", i, buf[i])
			}
		}
		return nil
	})
	if got := w.Stats().SameAddrSkips; got != 1 {
		t.Errorf("SameAddrSkips = %d, want 1", got)
	}
}

// haloPairs are the 26 send/receive slab pairs of one rank's exchange in
// a periodic 3D halo of n interior cells per side and width 1.
func haloPairs(n int) (send, recv []*Datatype) {
	m := n + 2
	sizes := []int{m, m, m}
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				var sub, sstart, rstart [3]int
				for i, d := range [3]int{dz, dy, dx} {
					switch d {
					case 0:
						sub[i], sstart[i], rstart[i] = n, 1, 1
					case 1:
						sub[i], sstart[i], rstart[i] = 1, n, 0
					case -1:
						sub[i], sstart[i], rstart[i] = 1, 1, n+1
					}
				}
				send = append(send, TypeSubarray(sizes, sub[:], sstart[:]).Commit())
				recv = append(recv, TypeSubarray(sizes, sub[:], rstart[:]).Commit())
			}
		}
	}
	return send, recv
}

// BenchmarkDatatypeKernels times the kernels on the halo workload's
// shapes: one rank's 26 strided-to-strided slab copies (the elided
// path), the same 26 slabs packed (the ForcePack path), and the last
// 64 KiB segment of a streamed 512×512 x-normal face, one 8-byte element
// per run.
func BenchmarkDatatypeKernels(b *testing.B) {
	const n, esz = 32, 8
	send, recv := haloPairs(n)
	src := make([]float64, (n+2)*(n+2)*(n+2))
	fillSeq(src)
	dst := make([]float64, len(src))
	packed := make([]byte, len(src)*esz)
	b.Run("halo26_copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range send {
				dtCopy(bytesOf(dst), recv[k], bytesOf(src), send[k], esz)
			}
		}
	})
	b.Run("halo26_pack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range send {
				dtPack(packed[:send[k].Size()*esz], bytesOf(src), send[k], esz)
			}
		}
	})
	b.Run("xface512_lastseg", func(b *testing.B) {
		face := TypeSubarray([]int{514, 514, 3}, []int{512, 512, 1}, []int{1, 1, 1}).Commit()
		grid := make([]float64, face.Extent())
		seg := make([]byte, wireTypedChunk)
		hi := face.Size()
		lo := hi - wireTypedChunk/esz
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dtPackRange(seg, bytesOf(grid), face, esz, lo, hi)
		}
	})
}

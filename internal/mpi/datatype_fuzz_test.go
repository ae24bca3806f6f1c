package mpi

import (
	"bytes"
	"testing"
)

// The datatype kernels checked against a naive model: each layout lists
// its element offsets straight from the constructor arguments, and the
// model moves one element at a time. The elided strided-to-strided path
// and the ForcePack pack/unpack path both run on these kernels, so this
// is what keeps them bitwise identical.

// fuzzInput hands out the fuzz input a byte at a time.
type fuzzInput []byte

// next returns a value in [0, n), 0 once the input is exhausted.
func (in *fuzzInput) next(n int) int {
	if len(*in) == 0 || n <= 1 {
		return 0
	}
	v := int((*in)[0]) % n
	*in = (*in)[1:]
	return v
}

// modelLayout is a datatype with the arguments it was built from and
// the element offsets it selects, in packed order.
type modelLayout struct {
	dt              *Datatype
	offs            []int
	subs            []int // subarray subsizes (nil for a vector)
	count, blocklen int   // vector arguments
}

func modelVector(count, blocklen, pad int) modelLayout {
	m := modelLayout{dt: TypeVector(count, blocklen, blocklen+pad).Commit(), count: count, blocklen: blocklen}
	for c := 0; c < count; c++ {
		for e := 0; e < blocklen; e++ {
			m.offs = append(m.offs, c*(blocklen+pad)+e)
		}
	}
	return m
}

func modelSubarray(sizes, subs, starts []int) modelLayout {
	m := modelLayout{dt: TypeSubarray(sizes, subs, starts).Commit(), subs: subs}
	m.offs = []int{0}
	for i := range sizes {
		var next []int
		for _, o := range m.offs {
			for k := 0; k < subs[i]; k++ {
				next = append(next, o*sizes[i]+starts[i]+k)
			}
		}
		m.offs = next
	}
	return m
}

// fuzzLayout builds a random vector or a 1-4 dimensional subarray;
// count-0 and count-1 dimensions come up often.
func fuzzLayout(in *fuzzInput) modelLayout {
	if in.next(2) == 0 {
		return modelVector(in.next(9), in.next(5), in.next(5))
	}
	nd := 1 + in.next(4)
	sizes, subs, starts := make([]int, nd), make([]int, nd), make([]int, nd)
	for i := range sizes {
		sizes[i] = 1 + in.next(17)
		subs[i] = in.next(sizes[i] + 1)
		starts[i] = in.next(sizes[i] - subs[i] + 1)
	}
	return modelSubarray(sizes, subs, starts)
}

// reshaped returns a layout built with the same counts and block length
// at other strides and offsets: the shape-matched dtCopy partner.
func (m modelLayout) reshaped(in *fuzzInput) modelLayout {
	if m.subs == nil {
		return modelVector(m.count, m.blocklen, in.next(5))
	}
	sizes, starts := make([]int, len(m.subs)), make([]int, len(m.subs))
	for i, s := range m.subs {
		sizes[i] = s + in.next(4)
		starts[i] = in.next(sizes[i] - s + 1)
	}
	return modelSubarray(sizes, m.subs, starts)
}

// regrouped returns a vector selecting the same number of elements in
// blocks of a random divisor of that number: usually a mismatched shape.
func (m modelLayout) regrouped(in *fuzzInput) modelLayout {
	n := len(m.offs)
	if n == 0 {
		return modelVector(0, 1, in.next(4))
	}
	var divs []int
	for b := 1; b <= n; b++ {
		if n%b == 0 {
			divs = append(divs, b)
		}
	}
	b := divs[in.next(len(divs))]
	return modelVector(n/b, b, in.next(4))
}

func modelPack(src []byte, offs []int, esz int) []byte {
	out := make([]byte, 0, len(offs)*esz)
	for _, o := range offs {
		out = append(out, src[o*esz:(o+1)*esz]...)
	}
	return out
}

// modelUnpack returns a copy of dst with packed scattered over offs;
// a short packed fills only the first offsets.
func modelUnpack(dst, packed []byte, offs []int, esz int) []byte {
	out := bytes.Clone(dst)
	for i, o := range offs[:len(packed)/esz] {
		copy(out[o*esz:(o+1)*esz], packed[i*esz:(i+1)*esz])
	}
	return out
}

// patterned returns n bytes of a fill that differs per seed, so a
// misplaced element shows.
func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) + seed
	}
	return b
}

// viewOf is how the typed entry points hand a layout to the kernels: a
// non-strided one becomes nil over the buffer's selected prefix.
func viewOf(buf []byte, m modelLayout, esz int) ([]byte, *Datatype) {
	if m.dt.strided() {
		return buf, m.dt
	}
	return buf[:len(m.offs)*esz], nil
}

// checkCopy runs dtCopy from src's selection into a patterned dst
// buffer and compares it with the model's unpack of the packed source.
func checkCopy(t *testing.T, what string, dstL, srcL modelLayout, src []byte, esz int) {
	t.Helper()
	dst := patterned(dstL.dt.Extent()*esz, 0x5a)
	want := modelUnpack(dst, modelPack(src, srcL.offs, esz), dstL.offs, esz)
	db, ddt := viewOf(dst, dstL, esz)
	sb, sdt := viewOf(src, srcL, esz)
	if sdt == nil && ddt == nil {
		return // the plain contiguous datapath, not a kernel
	}
	dtCopy(db, ddt, sb, sdt, esz)
	if !bytes.Equal(dst, want) {
		t.Fatalf("%s: dtCopy %s <- %s diverges from the model", what, dstL.dt.kind, srcL.dt.kind)
	}
}

func FuzzDatatypeKernels(f *testing.F) {
	// TestDatatypePackKernels' layouts: the 3x5 subarray of a 4x16 array
	// at (1,7) with 8-byte elements, whose mismatched partner is
	// TypeVector(15, 1, 4).
	f.Add([]byte{3, 1, 1, 3, 3, 1, 15, 5, 7, 0, 0, 0, 0, 0, 3})
	f.Add([]byte{3, 0, 4, 2, 3, 1, 2, 1, 2})
	f.Add([]byte{1, 1, 3, 5, 1, 2, 1, 1, 0, 4, 4, 0, 3, 3, 1, 9, 9, 9})
	f.Add([]byte{0, 1, 2, 2, 0, 0, 6, 3, 1, 16, 16, 0})
	w, err := NewWorld(Config{NumTasks: 1})
	if err != nil {
		f.Fatal(err)
	}
	task := &Task{world: w}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		esz := []int{1, 2, 4, 8}[in.next(4)]
		l := fuzzLayout(&in)
		dt, n := l.dt, len(l.offs)
		same, other := l.reshaped(&in), l.regrouped(&in)
		if dt.Size() != n {
			t.Fatalf("%s: Size %d, model selects %d", dt.kind, dt.Size(), n)
		}
		src := patterned(dt.Extent()*esz, 0x11)
		want := modelPack(src, l.offs, esz)

		// Pack, and unpack over a patterned buffer.
		got := make([]byte, n*esz)
		dtPack(got, src, dt, esz)
		if !bytes.Equal(got, want) {
			t.Fatalf("dtPack diverges from the model: %v vs %v", got, want)
		}
		packed := patterned(n*esz, 0x77)
		base := patterned(dt.Extent()*esz, 0x33)
		wantU := modelUnpack(base, packed, l.offs, esz)
		gotU := bytes.Clone(base)
		dtUnpack(gotU, packed, dt, esz)
		if !bytes.Equal(gotU, wantU) {
			t.Fatal("dtUnpack diverges from the model")
		}

		// unpack∘pack = id, and pack∘unpack = id.
		back := bytes.Clone(src)
		dtUnpack(back, want, dt, esz)
		if !bytes.Equal(back, src) {
			t.Fatal("unpacking a layout's own packing changed the buffer")
		}
		dtPack(got, gotU, dt, esz)
		if !bytes.Equal(got, packed) {
			t.Fatal("packing an unpacked buffer did not give the packed input back")
		}

		// Range variants over random chunk boundaries.
		cuts := []int{0}
		for lo := 0; lo < n; {
			lo += 1 + in.next(n-lo)
			cuts = append(cuts, lo)
		}
		clear(got)
		gotU = bytes.Clone(base)
		for i := 1; i < len(cuts); i++ {
			lo, hi := cuts[i-1], cuts[i]
			dtPackRange(got[lo*esz:hi*esz], src, dt, esz, lo, hi)
			dtUnpackRange(gotU, packed[lo*esz:hi*esz], dt, esz, lo, hi)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("chunked dtPackRange (cuts %v) diverges from the model", cuts)
		}
		if !bytes.Equal(gotU, wantU) {
			t.Fatalf("chunked dtUnpackRange (cuts %v) diverges from the model", cuts)
		}

		// dtCopy against unpack(pack): same shape, then mismatched.
		checkCopy(t, "shape-matched", same, l, src, esz)
		checkCopy(t, "mismatched", other, l, src, esz)

		// A message shorter than the receive selection writes exactly its
		// own elements, from a packed payload and from a strided source.
		if dt.strided() && n > 2 {
			k := 2 + in.next(n-2)
			dst := patterned(dt.Extent()*esz, 0x44)
			wantS := modelUnpack(dst, want[:k*esz], l.offs, esz)
			dtCopy(dst, dt, want[:k*esz], nil, esz)
			if !bytes.Equal(dst, wantS) {
				t.Fatalf("short packed source (%d of %d) diverges from the model", k, n)
			}
			short := modelVector(k, 1, 1)
			ssrc := patterned(short.dt.Extent()*esz, 0x66)
			dst = patterned(dt.Extent()*esz, 0x44)
			wantS = modelUnpack(dst, modelPack(ssrc, short.offs, esz), l.offs, esz)
			dtCopy(dst, dt, ssrc, short.dt, esz)
			if !bytes.Equal(dst, wantS) {
				t.Fatalf("short strided source (%d of %d) diverges from the model", k, n)
			}
		}

		// TypedApply folds with the same element pairing.
		switch esz {
		case 1:
			checkApply[uint8](t, task, other, l)
		case 2:
			checkApply[uint16](t, task, same, l)
		case 4:
			checkApply[uint32](t, task, other, l)
		default:
			checkApply[uint64](t, task, same, l)
		}
	})
}

// checkApply runs TypedApply(OpSum) from src's selection into dst's and
// compares it with the model's element-by-element sum.
func checkApply[T uint8 | uint16 | uint32 | uint64](t *testing.T, task *Task, dstL, srcL modelLayout) {
	t.Helper()
	src := make([]T, srcL.dt.Extent())
	dst := make([]T, dstL.dt.Extent())
	for i := range src {
		src[i] = T(i*5 + 3)
	}
	for i := range dst {
		dst[i] = T(i*11 + 1)
	}
	want := append([]T(nil), dst...)
	for i, o := range srcL.offs {
		want[dstL.offs[i]] += src[o]
	}
	if got := TypedApply(task, dst, dstL.dt, src, srcL.dt, OpSum, "fuzz"); got != len(srcL.offs) {
		t.Fatalf("TypedApply folded %d elements, want %d", got, len(srcL.offs))
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("TypedApply %s <- %s: dst[%d] = %v, want %v", dstL.dt.kind, srcL.dt.kind, i, dst[i], want[i])
		}
	}
}

package mpi

import (
	"encoding/binary"
	"slices"
)

// Derived datatypes: the strided-transfer layer of the runtime (ROADMAP
// item 4). A Datatype describes a non-contiguous selection of elements
// inside a user buffer — a strided vector, an N-dimensional subarray —
// with the MPI commit/size/extent semantics. Typed transfers take three
// escalating datapaths:
//
//  1. generic pack/unpack through a pooled eager buffer (the classic
//     MPI_Pack datapath, zero-alloc thanks to the size-classed pool);
//  2. pack elision on the shared address space: when sender and receiver
//     live in one process, the payload moves strided-to-strided between
//     the two user buffers with no intermediate at all, counted by
//     Stats().PackElisions — the HLS paper's
//     copy-removal argument applied to datatype packing;
//  3. on the wire, rendezvous payloads stream as pipelined packed chunks
//     (TypeDataSeg frames), so a large subarray never materializes fully
//     packed on either side.
//
// A Datatype is immutable after Commit and safe for concurrent use by
// any number of sends and receives.

// maxDtDims bounds the dimensionality of a Datatype, so the walker's
// loop nest and cursors live in fixed-size arrays and never allocate.
const maxDtDims = 8

// dtDim is one nesting level of a layout: count blocks separated by
// stride elements. Levels are ordered outer to inner; below every level
// is a contiguous run of Datatype.run elements.
type dtDim struct {
	count  int
	stride int
}

// Datatype describes a selection of elements within a buffer. Build one
// with TypeContiguous, TypeVector or TypeSubarray, then Commit it before
// use. The zero Datatype is invalid; a nil *Datatype passed to the typed
// operations means "the whole buffer, contiguously".
type Datatype struct {
	kind      string // "contiguous", "vector", "subarray"
	committed bool

	size   int // elements transferred (the packed element count)
	extent int // minimum buffer length, in elements, the layout addresses
	lower  int // element offset of the first run

	// The canonical loop nest (canonicalize): dims over runs of run elements.
	run  int
	dims []dtDim

	// contig marks layouts whose selected elements form one contiguous
	// run starting at offset 0: the typed paths normalize these to the
	// plain contiguous datapath, so TypeContiguous costs nothing.
	contig bool
}

// TypeContiguous describes the first n elements of a buffer. It exists
// for API symmetry (MPI_Type_contiguous); transfers using it take the
// ordinary contiguous datapath.
func TypeContiguous(n int) *Datatype {
	if n < 0 {
		raise(-1, "TypeContiguous", "negative element count %d", n)
	}
	d := &Datatype{kind: "contiguous", size: n, extent: n}
	d.canonicalize(nil, n)
	return d
}

// TypeVector describes count blocks of blocklen elements, the starts of
// consecutive blocks separated by stride elements (MPI_Type_vector).
// stride must be at least blocklen when count > 1: a smaller stride
// would make blocks overlap, which is a typed usage error.
func TypeVector(count, blocklen, stride int) *Datatype {
	switch {
	case count < 0:
		raise(-1, "TypeVector", "negative count %d", count)
	case blocklen < 0:
		raise(-1, "TypeVector", "negative block length %d", blocklen)
	case stride < 0:
		raise(-1, "TypeVector", "negative stride %d", stride)
	case count > 1 && stride < blocklen:
		raise(-1, "TypeVector", "stride %d smaller than block length %d: blocks overlap", stride, blocklen)
	}
	d := &Datatype{kind: "vector", size: count * blocklen}
	if d.size > 0 {
		d.extent = (count-1)*stride + blocklen
	}
	d.canonicalize([]dtDim{{count: count, stride: stride}}, blocklen)
	return d
}

// TypeSubarray describes the subsizes-shaped region at offset starts of
// a row-major sizes-shaped array (MPI_Type_create_subarray). All three
// slices must have the same length (the dimensionality, at most
// maxDtDims); each dimension must satisfy
// 0 <= starts[d] && subsizes[d] >= 0 && starts[d]+subsizes[d] <= sizes[d].
func TypeSubarray(sizes, subsizes, starts []int) *Datatype {
	nd := len(sizes)
	if nd == 0 || nd > maxDtDims {
		raise(-1, "TypeSubarray", "dimensionality %d out of range [1,%d]", nd, maxDtDims)
	}
	if len(subsizes) != nd || len(starts) != nd {
		raise(-1, "TypeSubarray", "sizes/subsizes/starts lengths differ: %d/%d/%d", nd, len(subsizes), len(starts))
	}
	for dIdx := 0; dIdx < nd; dIdx++ {
		switch {
		case sizes[dIdx] < 0:
			raise(-1, "TypeSubarray", "negative size %d in dimension %d", sizes[dIdx], dIdx)
		case subsizes[dIdx] < 0:
			raise(-1, "TypeSubarray", "negative subsize %d in dimension %d", subsizes[dIdx], dIdx)
		case starts[dIdx] < 0:
			raise(-1, "TypeSubarray", "negative start %d in dimension %d", starts[dIdx], dIdx)
		case starts[dIdx]+subsizes[dIdx] > sizes[dIdx]:
			raise(-1, "TypeSubarray", "dimension %d: start %d + subsize %d exceeds size %d",
				dIdx, starts[dIdx], subsizes[dIdx], sizes[dIdx])
		}
	}
	d := &Datatype{kind: "subarray", size: 1, extent: 1, lower: starts[nd-1]}
	for dIdx := range sizes {
		d.size *= subsizes[dIdx]
		d.extent *= sizes[dIdx]
	}
	// Row-major strides: dimension d advances by the product of the
	// full sizes of every inner dimension.
	dims := make([]dtDim, nd-1)
	stride := 1
	for dIdx := nd - 2; dIdx >= 0; dIdx-- {
		stride *= sizes[dIdx+1]
		d.lower += starts[dIdx] * stride
		dims[dIdx] = dtDim{count: subsizes[dIdx], stride: stride}
	}
	d.canonicalize(dims, subsizes[nd-1])
	return d
}

// canonicalize stores the canonical loop nest of dims (outer to inner)
// over runs of run elements: count-1 dimensions are dropped and a
// dimension whose stride spans exactly the level inside it is folded
// into that level (into the run, for the innermost), so a z-normal halo
// face has one outer dimension and two constructions selecting the same
// elements in the same order get equal forms. One run at offset 0 is
// contiguous; so is an empty layout, which addresses nothing.
func (d *Datatype) canonicalize(dims []dtDim, run int) {
	if d.size == 0 {
		d.extent, d.lower, d.contig = 0, 0, true
		return
	}
	var out []dtDim // inner to outer until reversed
	for i := len(dims) - 1; i >= 0; i-- {
		dm := dims[i]
		switch n := len(out); {
		case dm.count == 1:
		case n == 0 && dm.stride == run:
			run *= dm.count
		case n > 0 && dm.stride == out[n-1].count*out[n-1].stride:
			out[n-1].count *= dm.count
		default:
			out = append(out, dm)
		}
	}
	slices.Reverse(out)
	d.dims, d.run = out, run
	d.contig = len(out) == 0 && d.lower == 0
	if d.contig {
		d.extent = d.size
	}
}

// Commit finalizes the datatype for use in communication and returns it,
// so construction chains: dt := mpi.TypeVector(8, 2, 16).Commit().
// Using an uncommitted datatype in a typed operation is a usage error.
func (d *Datatype) Commit() *Datatype {
	d.committed = true
	return d
}

// Committed reports whether Commit has been called.
func (d *Datatype) Committed() bool { return d.committed }

// Size returns the number of elements the datatype transfers (the packed
// element count).
func (d *Datatype) Size() int { return d.size }

// Extent returns the minimum buffer length, in elements, a buffer must
// have to be used with this datatype.
func (d *Datatype) Extent() int { return d.extent }

// strided reports whether the layout needs the strided kernels; the
// typed entry points normalize non-strided datatypes to the contiguous
// datapath before the message is built.
func (d *Datatype) strided() bool { return d != nil && !d.contig }

// check validates a datatype argument against the buffer it is applied
// to, raising the usual fatal *Error on misuse.
func (d *Datatype) check(rank int, op string, buflen int) {
	if !d.committed {
		raise(rank, op, "datatype (%s) not committed: call Commit before use", d.kind)
	}
	if d.extent > buflen {
		raise(rank, op, "buffer of %d elements shorter than datatype extent %d", buflen, d.extent)
	}
}

// sameLayout reports whether two typed views select the same element
// offsets, so the same-address copy skip stays correct for typed
// transfers: identical buffer plus identical layout means the copy is a
// no-op, anything else must run the strided kernels. Canonical forms
// make a vector and a subarray naming the same elements compare equal.
func sameLayout(a, b *Datatype) bool {
	return a == b || a != nil && b != nil &&
		a.lower == b.lower && a.run == b.run && slices.Equal(a.dims, b.dims)
}

// sameShape reports whether two layouts share a loop nest up to strides
// and offset — equal counts and run length — so dtCopy can walk both at
// once. Every halo send/receive slab pair qualifies.
func sameShape(a, b *Datatype) bool {
	return a.run == b.run && slices.EqualFunc(a.dims, b.dims, func(x, y dtDim) bool { return x.count == y.count })
}

// nest is a layout compiled for one element size: the loop nest walk
// runs, in bytes, with at least one dimension (count 1 for one run).
type nest struct {
	nd     int
	run    int // bytes per innermost contiguous run
	base   int // byte offset of run 0
	count  [maxDtDims]int
	stride [maxDtDims]int
}

// compile fills the zero nest n in place (returning it by value would
// copy its arrays on every transfer).
func (n *nest) compile(d *Datatype, esz int) {
	n.nd, n.run, n.base = max(len(d.dims), 1), d.run*esz, d.lower*esz
	n.count[0] = 1
	for i, dm := range d.dims {
		n.count[i], n.stride[i] = dm.count, dm.stride*esz
	}
}

// tile lays n's runs back to back from byte offset base: the nest of a
// packed buffer of n's shape.
func (n *nest) tile(base int) {
	n.base = base
	s := n.run
	for i := n.nd - 1; i >= 0; i-- {
		n.stride[i] = s
		s *= n.count[i]
	}
}

// offset returns the byte offset of run q.
func (n *nest) offset(q int) int {
	off := n.base
	for i := n.nd - 1; i >= 0; i-- {
		off += q % n.count[i] * n.stride[i]
		q /= n.count[i]
	}
	return off
}

// walk moves runs [first, first+runs) of sn's selection of src into dn's
// selection of dst; the two nests share counts and run length. The outer
// dimensions are an odometer seeked straight to first, the innermost a
// tight loop advancing both sides by their strides.
func walk(dst []byte, dn *nest, src []byte, sn *nest, first, runs int) {
	var idx [maxDtDims]int
	for i, q := sn.nd-1, first; i >= 0; i-- {
		idx[i], q = q%sn.count[i], q/sn.count[i]
	}
	in := sn.nd - 1
	for runs > 0 {
		doff, soff := dn.base, sn.base
		for i := 0; i <= in; i++ {
			doff += idx[i] * dn.stride[i]
			soff += idx[i] * sn.stride[i]
		}
		k := min(runs, sn.count[in]-idx[in])
		moveRuns(dst, doff, dn.stride[in], src, soff, sn.stride[in], sn.run, k)
		runs -= k
		idx[in] = 0
		for i := in - 1; i >= 0; i-- {
			if idx[i]++; idx[i] < sn.count[i] {
				break
			}
			idx[i] = 0
		}
	}
}

// moveRuns moves k runs of run bytes, advancing the destination offset d
// by ds and the source offset s by ss after each. A run of one 8-byte
// element (the halo's float64 x-normal slabs are nothing else) is a
// single word load and store instead of a copy call.
func moveRuns(dst []byte, d, ds int, src []byte, s, ss, run, k int) {
	if run == 8 {
		for ; k > 0; k-- {
			binary.LittleEndian.PutUint64(dst[d:d+8], binary.LittleEndian.Uint64(src[s:s+8]))
			d, s = d+ds, s+ss
		}
		return
	}
	for ; k > 0; k-- {
		copy(dst[d:d+run], src[s:s+run])
		d, s = d+ds, s+ss
	}
}

// moveRange moves the packed elements [lo, hi) of layout d between d's
// selection of buf and chunk, which holds exactly those elements: pack
// gathers buf into chunk, otherwise chunk scatters into buf. Partial runs
// at either end move alone, the whole runs between in one walk seeked
// straight to lo, so no segment of a streamed transfer rescans the ones
// before it.
func moveRange(chunk, buf []byte, d *Datatype, esz, lo, hi int, pack bool) {
	if lo >= hi {
		return
	}
	var lay nest
	lay.compile(d, esz)
	pk := lay
	pk.tile(-lo * esz)
	dst, dn, src, sn := buf, &lay, chunk, &pk
	if pack {
		dst, dn, src, sn = chunk, &pk, buf, &lay
	}
	part := func(q, a, b int) { // elements [a, b) of run q
		m := (b - a) * esz
		copy(dst[dn.offset(q)+a*esz:][:m], src[sn.offset(q)+a*esz:][:m])
	}
	q0, q1 := lo/d.run, hi/d.run
	if r := lo % d.run; r != 0 {
		part(q0, r, min(d.run, hi-q0*d.run))
		q0++
	}
	if q0 < q1 {
		walk(dst, dn, src, sn, q0, q1-q0)
	}
	if r := hi % d.run; r != 0 && q1 >= q0 {
		part(q1, 0, r)
	}
}

// dtPack gathers the elements d selects in src (a byte view of the
// element buffer, esz bytes per element) into dst, densely packed.
func dtPack(dst, src []byte, d *Datatype, esz int) {
	moveRange(dst, src, d, esz, 0, d.size, true)
}

// dtUnpack scatters the densely packed src into the elements d selects
// in dst. A src shorter than the selection (a message may carry fewer
// elements than the receive type selects) fills only its prefix.
func dtUnpack(dst, src []byte, d *Datatype, esz int) {
	moveRange(src, dst, d, esz, 0, min(d.size, len(src)/esz), false)
}

// dtPackRange packs the packed-element index range [lo, hi) of layout d
// from src into dst — the wire path's pipelined chunking, which never
// materializes the full packed payload.
func dtPackRange(dst, src []byte, d *Datatype, esz, lo, hi int) {
	moveRange(dst, src, d, esz, lo, hi, true)
}

// dtUnpackRange is dtPackRange's inverse: src holds the packed elements
// [lo, hi) of layout d, scattered into dst.
func dtUnpackRange(dst, src []byte, d *Datatype, esz, lo, hi int) {
	moveRange(src, dst, d, esz, lo, hi, false)
}

// cursor walks a layout run by run for the run-splitting paths (dtCopy
// between mismatched shapes, TypedApply): off is the element offset of
// the current position and left the elements remaining in its run, 0
// once the layout is exhausted. A non-strided side is a single run.
type cursor struct {
	d         *Datatype
	idx       [maxDtDims]int
	off, left int
}

// newCursor starts a cursor on d; a non-strided d is n elements at 0.
func newCursor(d *Datatype, n int) cursor {
	if !d.strided() {
		return cursor{left: n}
	}
	return cursor{d: d, off: d.lower, left: d.run}
}

// advance consumes n elements (at most left), stepping the odometer to
// the next run when the current one is used up.
func (c *cursor) advance(n int) {
	c.off += n
	c.left -= n
	if c.left > 0 || c.d == nil {
		return
	}
	c.off -= c.d.run
	for i := len(c.d.dims) - 1; i >= 0; i-- {
		dm := c.d.dims[i]
		if c.idx[i]++; c.idx[i] < dm.count {
			c.off += dm.stride
			c.left = c.d.run
			return
		}
		c.idx[i] = 0
		c.off -= (dm.count - 1) * dm.stride
	}
}

// dtCopy moves sdt's selection of src straight into ddt's selection of
// dst — the pack-elision kernel: one pass over the data, no
// intermediate. Layouts of one shape (every halo pair) walk together;
// mismatched ones split runs on two cursors. Both layouts must select
// the same number of elements (the caller validates), except that a
// message may legally carry fewer elements than the receive type
// selects (Status.Count reports how many arrived): only those move.
func dtCopy(dst []byte, ddt *Datatype, src []byte, sdt *Datatype, esz int) {
	switch {
	case !sdt.strided():
		dtUnpack(dst, src, ddt, esz)
	case !ddt.strided():
		dtPack(dst, src, sdt, esz)
	case sameShape(sdt, ddt):
		var sn, dn nest
		sn.compile(sdt, esz)
		dn.compile(ddt, esz)
		walk(dst, &dn, src, &sn, 0, sdt.size/sdt.run)
	default:
		dc, sc := newCursor(ddt, 0), newCursor(sdt, 0)
		for dc.left > 0 && sc.left > 0 {
			n := min(dc.left, sc.left)
			copy(dst[dc.off*esz:(dc.off+n)*esz], src[sc.off*esz:(sc.off+n)*esz])
			dc.advance(n)
			sc.advance(n)
		}
	}
}

// typedElems validates the datatype arguments of TypedCopy and
// TypedApply against their buffers and returns the element count both
// selections transfer (nil = the whole slice).
func typedElems(t *Task, dlen int, ddt *Datatype, slen int, sdt *Datatype, op string) int {
	if sdt != nil {
		sdt.check(t.rank, op, slen)
		slen = sdt.Size()
	}
	if ddt != nil {
		ddt.check(t.rank, op, dlen)
		dlen = ddt.Size()
	}
	if slen != dlen {
		raise(t.rank, op, "datatype element counts differ: source %d, destination %d", slen, dlen)
	}
	return slen
}

// TypedCopy copies sdt's selection of src into ddt's selection of dst
// within one address space — the building block layers above the
// runtime (internal/rma's typed Put/Get) use to move strided data
// through a shared window. A nil datatype means the whole slice. The
// selections must transfer the same element count; the copy runs
// strided-to-strided with no intermediate and is counted as a pack
// elision when either side is strided. Returns the elements copied.
func TypedCopy[T Scalar](t *Task, dst []T, ddt *Datatype, src []T, sdt *Datatype, op string) int {
	n := typedElems(t, len(dst), ddt, len(src), sdt, op)
	if n == 0 {
		return 0
	}
	if !sdt.strided() && !ddt.strided() {
		copy(dst[:n], src[:n])
		return n
	}
	dtCopy(bytesOf(dst), ddt, bytesOf(src), sdt, elemSize[T]())
	t.world.stats.packElisions.Add(1)
	return n
}

// TypedApply folds sdt's selection of src into ddt's selection of dst
// with the reduce operator — internal/rma's typed Accumulate kernel.
// Same contract as TypedCopy (equal element counts, nil = whole slice),
// applied run-by-run with no intermediate, so a strided accumulate is a
// pack elision too. Returns the elements folded.
func TypedApply[T Scalar](t *Task, dst []T, ddt *Datatype, src []T, sdt *Datatype, op Op, opName string) int {
	elems := typedElems(t, len(dst), ddt, len(src), sdt, opName)
	if elems == 0 {
		return 0
	}
	dc, sc := newCursor(ddt, elems), newCursor(sdt, elems)
	for dc.left > 0 && sc.left > 0 {
		n := min(dc.left, sc.left)
		ApplyOp(op, dst[dc.off:dc.off+n], src[sc.off:sc.off+n])
		dc.advance(n)
		sc.advance(n)
	}
	if sdt.strided() || ddt.strided() {
		t.world.stats.packElisions.Add(1)
	}
	return elems
}

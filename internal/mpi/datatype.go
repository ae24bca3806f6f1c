package mpi

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

// maxDtDims bounds the dimensionality of a Datatype, so the pack/unpack
// cursor can live in a fixed-size array and iteration never allocates.
const maxDtDims = 8

// dtDim is one nesting level of the canonical layout: count blocks
// separated by stride elements. Levels are ordered outer to inner; the
// innermost level below every dim is a contiguous run of blocklen
// elements.
type dtDim struct {
	count  int
	stride int
}

// Datatype describes a selection of elements within a buffer. Build one
// with TypeContiguous, TypeVector or TypeSubarray, then Commit it before
// use. The zero Datatype is invalid; a nil *Datatype passed to the typed
// operations means "the whole buffer, contiguous".
type Datatype struct {
	kind      string // "contiguous", "vector", "subarray"
	committed bool

	size     int // elements transferred (the packed element count)
	extent   int // minimum buffer length, in elements, the layout addresses
	lower    int // element offset of the first block
	blocklen int // innermost contiguous run length, in elements
	dims     []dtDim

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
	d := &Datatype{kind: "contiguous", size: n, extent: n, blocklen: n}
	d.contig = true
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
	d := &Datatype{
		kind:     "vector",
		size:     count * blocklen,
		blocklen: blocklen,
		dims:     []dtDim{{count: count, stride: stride}},
	}
	if d.size > 0 {
		d.extent = (count-1)*stride + blocklen
	}
	d.contig = d.size == 0 || count == 1 || stride == blocklen
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
	// Row-major strides: dimension d advances by the product of the
	// full sizes of every inner dimension.
	d := &Datatype{kind: "subarray", blocklen: subsizes[nd-1]}
	d.size = 1
	for _, s := range subsizes {
		d.size *= s
	}
	stride := 1
	lower := starts[nd-1]
	d.extent = 1
	for _, s := range sizes {
		d.extent *= s
	}
	for dIdx := nd - 2; dIdx >= 0; dIdx-- {
		stride *= sizes[dIdx+1]
		lower += starts[dIdx] * stride
		// Prepend: dims are ordered outer to inner.
		d.dims = append([]dtDim{{count: subsizes[dIdx], stride: stride}}, d.dims...)
	}
	d.lower = lower
	if d.size == 0 {
		d.extent = 0
		d.lower = 0
	}
	d.contig = computeContig(d.dims, d.blocklen, d.lower) || d.size == 0
	if d.contig {
		// A contiguous subarray is addressed from its lower offset only
		// when that offset is zero; otherwise it keeps its strided
		// description (one run at a nonzero offset).
		d.contig = d.lower == 0
		if d.contig {
			d.extent = d.size
		}
	}
	return d
}

// computeContig reports whether the layout's selected elements form one
// contiguous run starting at offset zero, in which case the typed paths
// normalize it to the plain contiguous datapath.
func computeContig(dims []dtDim, blocklen, lower int) bool {
	if lower != 0 {
		return false
	}
	run := blocklen
	for i := len(dims) - 1; i >= 0; i-- {
		d := dims[i]
		if d.count == 0 {
			return true // size 0: trivially contiguous
		}
		if d.count > 1 && d.stride != run {
			return false
		}
		run *= d.count
	}
	return true
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
// no-op, anything else must run the strided kernels.
func sameLayout(a, b *Datatype) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.lower != b.lower || a.blocklen != b.blocklen || len(a.dims) != len(b.dims) {
		return false
	}
	for i := range a.dims {
		if a.dims[i] != b.dims[i] {
			return false
		}
	}
	return true
}

// runIter walks the contiguous runs of a layout in element order: each
// next() yields the element offset of the next run of d.blocklen
// elements. The cursor is a fixed-size odometer, so iteration performs
// no allocation — typed sends stay on the zero-alloc datapath.
type runIter struct {
	d    *Datatype
	idx  [maxDtDims]int
	done bool
}

func (it *runIter) init(d *Datatype) {
	it.d = d
	it.idx = [maxDtDims]int{}
	it.done = d == nil || d.size == 0
}

// next returns the element offset and length of the next contiguous run,
// or (0, 0) when the layout is exhausted.
func (it *runIter) next() (off, n int) {
	if it.done {
		return 0, 0
	}
	d := it.d
	off = d.lower
	for i := range d.dims {
		off += it.idx[i] * d.dims[i].stride
	}
	n = d.blocklen
	for i := len(d.dims) - 1; i >= 0; i-- {
		it.idx[i]++
		if it.idx[i] < d.dims[i].count {
			return off, n
		}
		it.idx[i] = 0
	}
	it.done = true
	return off, n
}

// dtPack gathers the elements d selects in src (a byte view of the
// element buffer, esz bytes per element) into dst, densely packed.
func dtPack(dst, src []byte, d *Datatype, esz int) {
	var it runIter
	it.init(d)
	w := 0
	for {
		off, n := it.next()
		if n == 0 {
			return
		}
		copy(dst[w:w+n*esz], src[off*esz:(off+n)*esz])
		w += n * esz
	}
}

// dtUnpack scatters the densely packed src into the elements d selects
// in dst.
func dtUnpack(dst, src []byte, d *Datatype, esz int) {
	var it runIter
	it.init(d)
	r := 0
	for {
		off, n := it.next()
		if n == 0 {
			return
		}
		copy(dst[off*esz:(off+n)*esz], src[r:r+n*esz])
		r += n * esz
	}
}

// dtPackRange packs the packed-element index range [lo, hi) of layout d
// from src into dst — the wire path's pipelined chunking, which never
// materializes the full packed payload.
func dtPackRange(dst, src []byte, d *Datatype, esz, lo, hi int) {
	var it runIter
	it.init(d)
	pos, w := 0, 0
	for pos < hi {
		off, n := it.next()
		if n == 0 {
			return
		}
		runLo, runHi := pos, pos+n
		pos = runHi
		if runHi <= lo {
			continue
		}
		s, e := max(lo, runLo), min(hi, runHi)
		if e <= s {
			continue
		}
		copy(dst[w:w+(e-s)*esz], src[(off+s-runLo)*esz:(off+e-runLo)*esz])
		w += (e - s) * esz
	}
}

// dtUnpackRange is dtPackRange's inverse: src holds the packed elements
// [lo, hi) of layout d, scattered into dst.
func dtUnpackRange(dst, src []byte, d *Datatype, esz, lo, hi int) {
	var it runIter
	it.init(d)
	pos, r := 0, 0
	for pos < hi {
		off, n := it.next()
		if n == 0 {
			return
		}
		runLo, runHi := pos, pos+n
		pos = runHi
		if runHi <= lo {
			continue
		}
		s, e := max(lo, runLo), min(hi, runHi)
		if e <= s {
			continue
		}
		copy(dst[(off+s-runLo)*esz:(off+e-runLo)*esz], src[r:r+(e-s)*esz])
		r += (e - s) * esz
	}
}

// dtCopy moves sdt's selection of src straight into ddt's selection of
// dst, splitting mismatched run lengths — the pack-elision kernel: one
// pass over the data, no intermediate. Both layouts must select the
// same number of elements (the caller validates).
func dtCopy(dst []byte, ddt *Datatype, src []byte, sdt *Datatype, esz int) {
	if sdt == nil || !sdt.strided() {
		lo := 0
		if sdt != nil {
			lo = sdt.lower
		}
		// Bounded by the source's element count, not the destination
		// layout's: a message may legally carry fewer elements than the
		// receive type selects (Status.Count reports how many arrived).
		packed := src[lo*esz:]
		dtUnpackRange(dst, packed, ddt, esz, 0, len(packed)/esz)
		return
	}
	if ddt == nil || !ddt.strided() {
		lo := 0
		if ddt != nil {
			lo = ddt.lower
		}
		dtPack(dst[lo*esz:], src, sdt, esz)
		return
	}
	var si, di runIter
	si.init(sdt)
	di.init(ddt)
	sOff, sLen := si.next()
	dOff, dLen := di.next()
	for sLen > 0 && dLen > 0 {
		n := min(sLen, dLen)
		copy(dst[dOff*esz:(dOff+n)*esz], src[sOff*esz:(sOff+n)*esz])
		sOff, sLen = sOff+n, sLen-n
		dOff, dLen = dOff+n, dLen-n
		if sLen == 0 {
			sOff, sLen = si.next()
		}
		if dLen == 0 {
			dOff, dLen = di.next()
		}
	}
}

// TypedCopy copies sdt's selection of src into ddt's selection of dst
// within one address space — the building block layers above the
// runtime (internal/rma's typed Put/Get) use to move strided data
// through a shared window. A nil datatype means the whole slice. The
// selections must transfer the same element count; the copy runs
// strided-to-strided with no intermediate and is counted as a pack
// elision when either side is strided. Returns the elements copied.
func TypedCopy[T Scalar](t *Task, dst []T, ddt *Datatype, src []T, sdt *Datatype, op string) int {
	sElems := len(src)
	if sdt != nil {
		sdt.check(t.rank, op, len(src))
		sElems = sdt.Size()
	}
	dElems := len(dst)
	if ddt != nil {
		ddt.check(t.rank, op, len(dst))
		dElems = ddt.Size()
	}
	if sElems != dElems {
		raise(t.rank, op, "datatype element counts differ: source %d, destination %d", sElems, dElems)
	}
	if sElems == 0 {
		return 0
	}
	esz := elemSize[T]()
	sb, db := bytesOf(src), bytesOf(dst)
	switch {
	case !sdt.strided() && !ddt.strided():
		sLo, dLo := 0, 0
		if sdt != nil {
			sLo = sdt.lower
		}
		if ddt != nil {
			dLo = ddt.lower
		}
		copy(db[dLo*esz:(dLo+dElems)*esz], sb[sLo*esz:(sLo+sElems)*esz])
	default:
		dtCopy(db, ddt, sb, sdt, esz)
		t.world.stats.packElisions.Add(1)
	}
	return sElems
}

// TypedApply folds sdt's selection of src into ddt's selection of dst
// with the reduce operator — internal/rma's typed Accumulate kernel.
// Same contract as TypedCopy (equal element counts, nil = whole slice),
// applied run-by-run with no intermediate, so a strided accumulate is a
// pack elision too. Returns the elements folded.
func TypedApply[T Scalar](t *Task, dst []T, ddt *Datatype, src []T, sdt *Datatype, op Op, opName string) int {
	sElems := len(src)
	if sdt != nil {
		sdt.check(t.rank, opName, len(src))
		sElems = sdt.Size()
	}
	dElems := len(dst)
	if ddt != nil {
		ddt.check(t.rank, opName, len(dst))
		dElems = ddt.Size()
	}
	if sElems != dElems {
		raise(t.rank, opName, "datatype element counts differ: source %d, destination %d", sElems, dElems)
	}
	if sElems == 0 {
		return 0
	}
	if !sdt.strided() && !ddt.strided() {
		sLo, dLo := 0, 0
		if sdt != nil {
			sLo = sdt.lower
		}
		if ddt != nil {
			dLo = ddt.lower
		}
		ApplyOp(op, dst[dLo:dLo+dElems], src[sLo:sLo+sElems])
		return sElems
	}
	// Dual-iterator run split, like dtCopy but folding instead of moving.
	sOff, sLen := 0, sElems
	dOff, dLen := 0, dElems
	var si, di runIter
	if sdt.strided() {
		si.init(sdt)
		sOff, sLen = si.next()
	} else if sdt != nil {
		sOff = sdt.lower
	}
	if ddt.strided() {
		di.init(ddt)
		dOff, dLen = di.next()
	} else if ddt != nil {
		dOff = ddt.lower
	}
	for sLen > 0 && dLen > 0 {
		n := min(sLen, dLen)
		ApplyOp(op, dst[dOff:dOff+n], src[sOff:sOff+n])
		sOff, sLen = sOff+n, sLen-n
		dOff, dLen = dOff+n, dLen-n
		if sLen == 0 && sdt.strided() {
			sOff, sLen = si.next()
		}
		if dLen == 0 && ddt.strided() {
			dOff, dLen = di.next()
		}
	}
	t.world.stats.packElisions.Add(1)
	return sElems
}

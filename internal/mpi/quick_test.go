package mpi

import (
	"testing"
	"testing/quick"
)

// TestApplyMatchesReference: the reduction kernel equals a scalar fold
// for every op on arbitrary inputs.
func TestApplyMatchesReference(t *testing.T) {
	ref := map[Op]func(a, b int64) int64{
		OpSum:  func(a, b int64) int64 { return a + b },
		OpProd: func(a, b int64) int64 { return a * b },
		OpMax: func(a, b int64) int64 {
			if b > a {
				return b
			}
			return a
		},
		OpMin: func(a, b int64) int64 {
			if b < a {
				return b
			}
			return a
		},
	}
	f := func(dst, src []int8, opRaw uint8) bool {
		if len(dst) != len(src) {
			n := min(len(dst), len(src))
			dst, src = dst[:n], src[:n]
		}
		op := Op(opRaw % 4)
		a := make([]int64, len(dst))
		b := make([]int64, len(src))
		want := make([]int64, len(dst))
		for i := range dst {
			a[i] = int64(dst[i])
			b[i] = int64(src[i])
			want[i] = ref[op](a[i], b[i])
		}
		apply(0, op, a, b)
		for i := range a {
			if a[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestApplyOpsCommutative: every provided reduction operator is
// commutative, the property the tree reduction relies on.
func TestApplyOpsCommutative(t *testing.T) {
	f := func(x, y int16, opRaw uint8) bool {
		op := Op(opRaw % 4)
		a1 := []int64{int64(x)}
		b1 := []int64{int64(y)}
		a2 := []int64{int64(y)}
		b2 := []int64{int64(x)}
		apply(0, op, a1, b1)
		apply(0, op, a2, b2)
		return a1[0] == a2[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestApplyOpsAssociative on random triples.
func TestApplyOpsAssociative(t *testing.T) {
	f := func(x, y, z int8, opRaw uint8) bool {
		op := Op(opRaw % 4)
		// (x op y) op z
		a := []int64{int64(x)}
		apply(0, op, a, []int64{int64(y)})
		apply(0, op, a, []int64{int64(z)})
		// x op (y op z)
		b := []int64{int64(y)}
		apply(0, op, b, []int64{int64(z)})
		c := []int64{int64(x)}
		apply(0, op, c, b)
		return a[0] == c[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMessageMatchingProperty: the bucketed matching engine honours
// wildcards and nothing else — a posted receive matches an incoming
// (ctx, src, tag) exactly when the contexts agree and each of source and
// tag is either equal or a wildcard.
func TestMessageMatchingProperty(t *testing.T) {
	f := func(ctx1, ctx2 uint8, src1, src2, tag1, tag2 uint8, anySrc, anyTag bool) bool {
		mctx, msrc, mtag := int64(ctx1%3), int(src1%4), int(tag1%4)
		pr := getPostedRecv()
		pr.ctx = int64(ctx2 % 3)
		pr.src = int(src2 % 4)
		pr.tag = int(tag2 % 4)
		if anySrc {
			pr.src = AnySource
		}
		if anyTag {
			pr.tag = AnyTag
		}
		want := mctx == pr.ctx &&
			(anySrc || msrc == pr.src) &&
			(anyTag || mtag == pr.tag)

		ep := newEndpoint(0)
		ep.mu.Lock()
		ep.postSeq++
		pr.seq = ep.postSeq
		if pr.src == AnySource {
			ep.wild.push(pr)
		} else {
			ep.bucket(epKey{pr.ctx, pr.src}).pushRecv(pr)
		}
		got := ep.matchRecvLocked(mctx, msrc, mtag)
		ep.mu.Unlock()
		if got != nil {
			putPostedRecv(got)
		} else {
			// leave pr queued; the endpoint is dropped after this iteration
			_ = pr
		}
		return (got != nil) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

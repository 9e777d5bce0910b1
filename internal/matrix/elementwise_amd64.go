package matrix

//go:noescape
func copyBlockAVX2(dst *float64, ds int, src *float64, ss int, rows, cols int)

//go:noescape
func addBlockAVX2(dst *float64, ds int, src *float64, ss int, rows, cols int)

//go:noescape
func mulElemsAVX2(dst, a, b *float64, n int)

//go:noescape
func keepPositiveAVX2(dst, src, sel *float64, n int)

//go:noescape
func dropoutApplyAVX2(mask, out, src *float64, n int, keep, scale float64)

//go:noescape
func adamUpdateAVX2(w, grad, m, v *float64, n int, k *AdamCoeffs)

// copyBlock and addBlock are the block twins on the fastest path this CPU
// has (the avx512 level runs the AVX2 form); the block is not empty and
// both slices are long enough for it.
func copyBlock(dst []float64, ds int, src []float64, ss int, rows, cols int) {
	if kernelLevel == portable {
		copyBlockGeneric(dst, ds, src, ss, rows, cols)
		return
	}
	copyBlockAVX2(&dst[0], ds, &src[0], ss, rows, cols)
}

// addBlock's AVX2 form runs the whole vectors of each row and the twin the
// last cols%4 columns: a masked store stalls the next row's load of the
// vector it wrote into, which costs more than a scalar tail.
func addBlock(dst []float64, ds int, src []float64, ss int, rows, cols int) {
	v := cols &^ 3
	if kernelLevel == portable || v == 0 {
		addBlockGeneric(dst, ds, src, ss, rows, cols)
		return
	}
	addBlockAVX2(&dst[0], ds, &src[0], ss, rows, v)
	if v < cols {
		addBlockGeneric(dst[v:], ds, src[v:], ss, rows, cols-v)
	}
}

// mulElems, keepPositive, dropoutApply and adamUpdate are the element-wise
// twins on the fastest path this CPU has (the avx512 level runs the AVX2
// form); every slice is as long as the first.
func mulElems(dst, a, b []float64) {
	if kernelLevel == portable || len(dst) == 0 {
		mulElemsGeneric(dst, a, b)
		return
	}
	mulElemsAVX2(&dst[0], &a[0], &b[0], len(dst))
}

func keepPositive(dst, src, sel []float64) {
	if kernelLevel == portable || len(dst) == 0 {
		keepPositiveGeneric(dst, src, sel)
		return
	}
	keepPositiveAVX2(&dst[0], &src[0], &sel[0], len(dst))
}

func dropoutApply(mask, out, src []float64, keep, scale float64) {
	if kernelLevel == portable || len(out) == 0 {
		dropoutApplyGeneric(mask, out, src, keep, scale)
		return
	}
	dropoutApplyAVX2(&mask[0], &out[0], &src[0], len(out), keep, scale)
}

func adamUpdate(w, g, m, v []float64, k *AdamCoeffs) {
	if kernelLevel == portable || len(w) == 0 {
		adamUpdateGeneric(w, g, m, v, k)
		return
	}
	adamUpdateAVX2(&w[0], &g[0], &m[0], &v[0], len(w), k)
}

package tensor

import "sync"

// Blocked SGEMM: the GotoBLAS-style loop nest behind Gemm. The matrix is
// processed in cache-sized panels — B in KC×NC panels that stay resident in
// L2, A in MC×KC panels repacked into register-block order — with a
// register-blocked micro-kernel at the bottom, selected by the runtime ISA
// ladder (isa.go): the pure-Go row kernel, SSE2 4×8, or the AVX2 strip
// kernels.
// Two properties are load bearing and must survive any future tuning:
//
//  1. Determinism. Every C element accumulates its k terms in strictly
//     ascending order: the KC loop walks k blocks in ascending order and the
//     micro-kernel walks l within a block in ascending order, accumulating
//     straight into C. A zero α·a contributes nothing to its row (the naive
//     kernel's `av == 0` skip: Inf or NaN opposite it in B never reaches C,
//     a −0 in C keeps its sign) — the Go row and SSE2 tile test every packed
//     value, the AVX2 rung drops the zero terms of a row before its kernel
//     runs and sends only strips without one to the dense tile. Together
//     this makes the blocked kernel bit-identical to gemmNaive for every
//     transpose combination, every alpha/beta, any row banding, AND every
//     ISA level — SIMD lanes always map to distinct j columns, never to k.
//     This is the convergence-invariance contract the dnn layers and
//     internal/models/invariance_test.go rely on.
//
//  2. Zero steady-state allocation. Packing buffers are drawn from a
//     sync.Pool-backed arena (gemmBufs); the transposed cases pack straight
//     from the strided source into panels, so the naive kernel's per-call
//     transpose allocation is gone entirely. The optional fused epilogue is
//     applied in place over completed C rows and allocates nothing.
//
// Block sizes: KC×NC×4B = 512 KB keeps the B panel in L2; MC×KC×4B = 64 KB
// streams the A panel through L1; MR rows of C (≤ NC×4B each) live in
// registers/L1 inside the micro-kernel, so each packed B row is loaded once
// per MR rows of output instead of once per row. MR is per-ISA (1 for
// pure-Go, which has no strips, 4 for SSE2, 8 for AVX2); gemmMC is divisible
// by each so full panels split into whole strips.
const (
	gemmMC  = 64  // rows of A packed per panel
	gemmKC  = 256 // k extent of one panel pass
	gemmNC  = 512 // columns of B packed per panel
	gemmMR4 = 4   // register-blocked rows: SSE2 micro-kernel
	gemmMR8 = 8   // register-blocked rows: AVX2 micro-kernel
)

// gemmBufs is one arena cell: the A and B packing panels for a single
// in-flight Gemm (or one row band of GemmParallelPacked). Capacity is fixed
// at the maximum panel size (independent of MR — the strip layout reorders
// the same mc×kc elements), so steady-state Get/Put never reallocates.
type gemmBufs struct {
	ap []float32 // packed op(A) panel, MC×KC, alpha folded in
	bp []float32 // packed op(B) panel, KC×NC row-major
}

var gemmPool = sync.Pool{New: func() any {
	return &gemmBufs{
		ap: make([]float32, gemmMC*gemmKC),
		bp: make([]float32, gemmKC*gemmNC),
	}
}}

// gemmBlocked computes rows [i0,i1) of C += op(A)·op(B) with alpha folded
// into the packed A panel, dispatching the lv micro-kernel. m is the full
// logical M of op(A) (the lead dimension of a transposed A), so a row band
// sees exactly the same memory layout as the full product — the basis of
// GemmParallelPacked's bitwise determinism at any band count. The caller
// has already applied a beta other than 0 and screened out the k==0 /
// alpha==0 / empty cases; with zeroC (beta == 0) the first k panel starts
// every accumulator from +0 instead of reading C, which is what a cleared C
// would give, in one pass over C instead of two.
//
// A non-nil epi runs once per completed C row segment, immediately after
// the final k panel finishes that block — while the rows are still cache
// hot. The epilogue must be elementwise (each output element transformed
// independently), which makes the fused result bitwise identical to running
// the same transform as a separate full pass, by construction.
//
// A non-nil pa is op(A) packed once (PackedA): each panel is indexed out of
// it instead of packed — the same floats in the same layout, so the loop
// nest below is the only one either way.
func gemmBlocked(lv ISA, pa *PackedA, transA, transB bool, i0, i1, m, n, k int, alpha float32, a, b, c []float32, zeroC bool, epi GemmEpilogue) {
	bufs := gemmPool.Get().(*gemmBufs)
	ap, bp := bufs.ap, bufs.bp
	// Packing B pays when several A panels reuse the copy. A row-major B
	// that a single A panel consumes is read where it lies, in whole 8-column
	// tiles; only the columns past the last whole tile are packed (into a
	// zero-padded 8-wide panel), so that no 8-float load crosses b's end.
	inPlace := !transB && i1-i0 <= gemmMC
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		nb, ldb := nc, (nc+7)&^7 // columns behind the (bq, ldb) view, its row stride
		if inPlace {
			nb, ldb = nc&^7, n
		}
		// k blocks strictly ascending: each C element in this column panel
		// accumulates its k terms in the same order the naive kernel uses.
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			lastK := pc+kc == k
			zero := zeroC && pc == 0
			bq := bp
			if inPlace {
				bq = b[pc*n+jc:]
				if nb < nc {
					packB(false, b, bp, pc, jc+nb, kc, nc-nb, n, k, 8)
				}
			} else {
				packB(transB, b, bp, pc, jc, kc, nc, n, k, ldb)
			}
			for ic := i0; ic < i1; ic += gemmMC {
				mc := min(gemmMC, i1-ic)
				aq, sparse := ap, uint32(0)
				if pa != nil {
					aq, sparse = pa.panel(ic, pc, mc, kc)
				} else {
					sparse = packA(lv, transA, a, ap, ic, pc, mc, kc, m, k, alpha)
				}
				gemmMicro(lv, aq, sparse, bq, ldb, c, ic, jc, mc, kc, nb, n, zero)
				if nb < nc {
					gemmMicro(lv, aq, sparse, bp, 8, c, ic, jc+nb, mc, kc, nc-nb, n, zero)
				}
				if epi != nil && lastK {
					for i := ic; i < ic+mc; i++ {
						epi(i, jc, c[i*n+jc:i*n+jc+nc])
					}
				}
			}
		}
	}
	bufs.ap, bufs.bp = ap, bp
	gemmPool.Put(bufs)
}

// gemmZeros stands in for the source rows past a transposed panel's edge.
var gemmZeros [gemmKC]float32

// packB copies the kc×nc panel of op(B) starting at (pc, jc) into bp as a
// row-major panel of row stride ldb — nc rounded up to whole 8-column tiles,
// the pad zero-filled, so a vector kernel may load 8 floats at any tile. For
// transB the stored layout is N×K: eight source rows are walked together and
// each l writes their eight values as one contiguous run (a blocked
// transpose; a column at a time would touch a new cache line per store). This
// replaces the naive kernel's full N×K transpose allocation.
func packB(transB bool, b, bp []float32, pc, jc, kc, nc, n, k, ldb int) {
	if !transB {
		for l := 0; l < kc; l++ {
			row := bp[l*ldb : l*ldb+ldb]
			clear(row[copy(row, b[(pc+l)*n+jc:(pc+l)*n+jc+nc]):])
		}
		return
	}
	var src [8][]float32
	for j := 0; j < nc; j += 8 {
		for i := range src {
			src[i] = gemmZeros[:kc]
			if j+i < nc {
				src[i] = b[(jc+j+i)*k+pc:][:kc]
			}
		}
		s0, s1, s2, s3, s4, s5, s6, s7 := src[0], src[1], src[2], src[3], src[4], src[5], src[6], src[7]
		for l := 0; l < kc; l++ {
			d := bp[l*ldb+j : l*ldb+j+8 : l*ldb+j+8]
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0[l], s1[l], s2[l], s3[l], s4[l], s5[l], s6[l], s7[l]
		}
	}
}

// packA packs the mc×kc panel of op(A) starting at row ic, column pc, with
// alpha folded in (av = alpha·a matches the naive kernel's per-term
// multiply bit for bit), for the lv rung. Layout: the rung's whole MR-row
// strips interleaved by l ([l*MR+r] within a strip), then the remainder rows
// appended one contiguous kc-length row each — at the pure-Go rung, which
// has no strips, every row. Bit s of the result is set when strip s holds a
// zero av (±0; a NaN is not one) — counted without a branch, since the
// zeros of a backward operand fall in no predictable pattern.
func packA(lv ISA, transA bool, a, ap []float32, ic, pc, mc, kc, m, k int, alpha float32) (sparse uint32) {
	mr := lv.mr()
	off := 0
	strips := lv.strips(mc)
	for s := 0; s < strips; s++ {
		r := ic + s*mr
		dst := ap[off : off+mr*kc]
		nonzero := 0
		if !transA {
			for rr := 0; rr < mr; rr++ {
				row := a[(r+rr)*k+pc : (r+rr)*k+pc+kc]
				for l, v := range row {
					av := alpha * v
					dst[l*mr+rr] = av
					if av != 0 {
						nonzero++
					}
				}
			}
		} else {
			for l := 0; l < kc; l++ {
				row := a[(pc+l)*m+r : (pc+l)*m+r+mr]
				for rr, v := range row {
					av := alpha * v
					dst[l*mr+rr] = av
					if av != 0 {
						nonzero++
					}
				}
			}
		}
		if nonzero < mr*kc {
			sparse |= 1 << s
		}
		off += mr * kc
	}
	for r := ic + strips*mr; r < ic+mc; r++ {
		dst := ap[off : off+kc]
		if !transA {
			for l, v := range a[r*k+pc : r*k+pc+kc] {
				dst[l] = alpha * v
			}
		} else {
			for l := range dst {
				dst[l] = alpha * a[(pc+l)*m+r] // stored K×M
			}
		}
		off += kc
	}
	return sparse
}

// PackedA is alpha·op(A) packed once for the products that share it (a conv
// layer's W across its batch) in packA's layout: per k block, ascending, the
// MR-row strips in order, then the remainder rows — row r of block pc starts
// at m·pc + r·kc — with one zero flag per strip, and the ISA rung (so the MR)
// it was packed for, which a product reading it runs on. Floats, order and
// kernel choice are per-call packing's, so the bits are too. The floats are
// leased from the arena by Pack and returned by Release.
type PackedA struct {
	lv     ISA
	transA bool
	m, k   int
	alpha  float32
	buf    *Buf
	zeros  []bool // [block·(m/MR) + strip]: the strip holds a zero α·a
}

// Pack packs alpha·op(A) — op(A) is m×k, stored k×m when transA — for the
// active ISA rung, releasing any earlier packing first.
func (p *PackedA) Pack(transA bool, m, k int, alpha float32, a []float32) {
	if len(a) < m*k {
		panic("tensor: PackedA.Pack A too small")
	}
	p.Release()
	*p = PackedA{lv: ActiveISA(), transA: transA, m: m, k: k, alpha: alpha, buf: GetBuf(m * k), zeros: p.zeros[:0]}
	for pc := 0; pc < k; pc += gemmKC {
		kc := min(gemmKC, k-pc)
		blk := p.buf.Data[m*pc : m*(pc+kc)]
		for ic := 0; ic < m; ic += gemmMC {
			mc := min(gemmMC, m-ic)
			sparse := packA(p.lv, transA, a, blk[ic*kc:], ic, pc, mc, kc, m, k, alpha)
			for s := 0; s < p.lv.strips(mc); s++ {
				p.zeros = append(p.zeros, sparse&(1<<s) != 0)
			}
		}
	}
}

// Release returns the packed floats to the arena. Only after every product
// reading them has finished — in the dnn layers, after the pass's barrier.
func (p *PackedA) Release() {
	if p.buf != nil {
		p.buf.Put()
		p.buf = nil
	}
}

// panel returns rows [ic, ic+mc) of k block pc and their strips' zero mask:
// what packA writes and returns for that panel. ic is a multiple of MR (band
// edges are), so the panel's strips are whole strips of the packing.
func (p *PackedA) panel(ic, pc, mc, kc int) ([]float32, uint32) {
	first := pc/gemmKC*p.lv.strips(p.m) + ic/p.lv.mr()
	var sparse uint32
	for s := 0; s < p.lv.strips(mc); s++ {
		if p.zeros[first+s] {
			sparse |= 1 << s
		}
	}
	return p.buf.Data[p.m*pc+ic*kc : p.m*pc+(ic+mc)*kc], sparse
}

// gemmMicro runs the packed A panel against the nc columns of the B view
// (bq, ldb) — a packed panel, or op(B) where it lies — for the C block at
// (ic, jc): the rung's MR-row strips through its register-tile kernel, then
// single rows. Every kernel keeps its C elements in registers across the
// whole k block (one load and one store per element per panel pass instead
// of one round trip per k term — the difference between the naive kernel's
// store-port bound and this one's FPU bound, and with zero not even the
// load), accumulates l in ascending order and lets a zero av contribute
// nothing to its row, so every element's value is bit-identical to the naive
// kernel's at every ISA level.
//
// On the AVX2 rung the kernel is chosen per strip from what packA saw: a
// strip without a zero runs the branch-free dense tile; any other row — a
// strip that holds a zero, or a remainder row — is compacted to its non-zero
// terms first, so its cost follows its non-zeros and no kernel branches on
// data. Below it every single row — all of them at the pure-Go rung — runs
// micro1.
func gemmMicro(lv ISA, ap []float32, sparse uint32, bq []float32, ldb int, c []float32, ic, jc, mc, kc, nc, n int, zero bool) {
	if nc == 0 {
		return
	}
	mr := lv.mr()
	off := 0
	strips := lv.strips(mc)
	for s := 0; s < strips; s++ {
		r := ic + s*mr
		strip := ap[off : off+mr*kc]
		switch {
		case mr == gemmMR4:
			micro4(strip, bq, ldb, c, r, jc, kc, nc, n, zero)
		case sparse&(1<<s) == 0:
			denseStrip(strip, bq, ldb, c, r, jc, kc, nc, n, zero)
		default:
			for rr := 0; rr < gemmMR8; rr++ {
				sparseRow(strip[rr:], gemmMR8, kc, bq, ldb, c[(r+rr)*n+jc:(r+rr)*n+jc+nc], zero)
			}
		}
		off += mr * kc
	}
	for r := ic + strips*mr; r < ic+mc; r++ {
		if mr == gemmMR8 {
			sparseRow(ap[off:off+kc], 1, kc, bq, ldb, c[r*n+jc:r*n+jc+nc], zero)
		} else {
			micro1(ap[off:off+kc], bq, ldb, c[r*n+jc:r*n+jc+nc], kc, zero)
		}
		off += kc
	}
}

// denseStrip computes eight C rows from a strip that holds no zero: 8×8 YMM
// register tiles, the column tail narrower than 8 through the same tile over
// a scratch copy of its C block (B rows are padded to whole tiles, C rows
// are not).
func denseStrip(strip, bq []float32, ldb int, c []float32, r, jc, kc, nc, n int, zero bool) {
	j := 0
	for ; j+8 <= nc; j += 8 {
		dense8x8(&strip[0], &bq[j], &c[r*n+jc+j], kc, 4*ldb, 4*n, zero)
	}
	if j < nc {
		var cs [8 * 8]float32
		for rr := 0; rr < 8; rr++ {
			copy(cs[rr*8:rr*8+8], c[(r+rr)*n+jc+j:(r+rr)*n+jc+nc])
		}
		dense8x8(&strip[0], &bq[j], &cs[0], kc, 4*ldb, 4*8, zero)
		for rr := 0; rr < 8; rr++ {
			copy(c[(r+rr)*n+jc+j:(r+rr)*n+jc+nc], cs[rr*8:])
		}
	}
}

// sparseRow computes one C row segment ci from the kc packed values
// src[l*stride]: the row is first compacted to its non-zero terms — value
// and k index, ascending; the dropped terms are exactly those the naive
// kernel skips — then walked 64 and 8 columns at a time, the tail narrower
// than 8 over a scratch copy. The compaction is branch-free: every term is
// written and the cursor advances only past a non-zero one.
func sparseRow(src []float32, stride, kc int, bq []float32, ldb int, ci []float32, zero bool) {
	var vals [gemmKC]float32
	var ls [gemmKC]int32
	cnt := 0
	for l := 0; l < kc; l++ {
		v := src[l*stride]
		vals[cnt], ls[cnt] = v, int32(l)
		if v != 0 {
			cnt++
		}
	}
	j := 0
	for ; j+64 <= len(ci); j += 64 {
		sparseRow64(&vals[0], &ls[0], cnt, &bq[j], 4*ldb, &ci[j], zero)
	}
	for ; j+8 <= len(ci); j += 8 {
		sparseRow8(&vals[0], &ls[0], cnt, &bq[j], 4*ldb, &ci[j], zero)
	}
	if j < len(ci) {
		var cs [8]float32
		copy(cs[:], ci[j:])
		sparseRow8(&vals[0], &ls[0], cnt, &bq[j], 4*ldb, &cs[0], zero)
		copy(ci[j:], cs[:])
	}
}

// micro4 computes four C rows from a packed 4-row strip ([l*4+row], alpha
// folded in): 4×8 SSE register tiles, the column tail narrower than 8
// through the same tile over a scratch copy of its C block, as denseStrip
// does. With zero the accumulators start from +0 instead of C.
func micro4(strip, bq []float32, ldb int, c []float32, r, jc, kc, nc, n int, zero bool) {
	j := 0
	for ; j+8 <= nc; j += 8 {
		o := r*n + jc + j
		micro4x8(&strip[0], &bq[j], &c[o], &c[o+n], &c[o+2*n], &c[o+3*n], kc, 4*ldb, zero)
	}
	if j < nc {
		var cs [4 * 8]float32
		for rr := 0; rr < 4; rr++ {
			copy(cs[rr*8:rr*8+8], c[(r+rr)*n+jc+j:(r+rr)*n+jc+nc])
		}
		micro4x8(&strip[0], &bq[j], &cs[0], &cs[8], &cs[16], &cs[24], kc, 4*ldb, zero)
		for rr := 0; rr < 4; rr++ {
			copy(c[(r+rr)*n+jc+j:(r+rr)*n+jc+nc], cs[rr*8:])
		}
	}
}

// micro1 computes one C row against the B view — every row at the pure-Go
// rung, the remainder rows of a panel on SSE2 — 8 columns at a time, the
// column tail narrower than 8 over a scratch copy (B rows are padded to
// whole 8-column tiles).
func micro1(arow, bp []float32, ldb int, ci []float32, kc int, zero bool) {
	arow = arow[:kc]
	for j := 0; j < len(ci); j += 8 {
		if j+8 <= len(ci) {
			row8(arow, bp[j:], ldb, (*[8]float32)(ci[j:j+8]), zero)
			continue
		}
		var cs [8]float32
		copy(cs[:], ci[j:])
		row8(arow, bp[j:], ldb, &cs, zero)
		copy(ci[j:], cs[:])
	}
}

// row8 accumulates the non-zero terms arow[l]·b[l*ldb : l*ldb+8], l
// ascending, into eight C columns held in registers for the whole k block —
// from +0 with zero, else from c — and stores them back: the strip kernels'
// ordering and zero-skip contract, one row at a time. It is a function of
// its own so that its loop has the registers to itself: written inside
// micro1's column loop, the loop index and two accumulators spill to the
// stack, which cost 13–21 % on the pure-Go BenchmarkGemmRungs cells.
func row8(arow, b []float32, ldb int, c *[8]float32, zero bool) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	if !zero {
		s0, s1, s2, s3, s4, s5, s6, s7 = c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
	}
	for l, a := range arow {
		if a == 0 {
			continue
		}
		bl := b[l*ldb : l*ldb+8 : l*ldb+8]
		s0 += a * bl[0]
		s1 += a * bl[1]
		s2 += a * bl[2]
		s3 += a * bl[3]
		s4 += a * bl[4]
		s5 += a * bl[5]
		s6 += a * bl[6]
		s7 += a * bl[7]
	}
	c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

// RowParallel is the execution resource GemmParallelPacked shards row bands
// across. hostpool.Pool implements it; the indirection keeps the tensor
// package free of an execution-engine dependency.
type RowParallel interface {
	// Workers returns the concurrency bound.
	Workers() int
	// Run executes fn(0..tasks-1), possibly concurrently. Implementations
	// must run every task exactly once, return after all complete, and
	// report panicking tasks through the error instead of crashing worker
	// goroutines.
	Run(tasks int, fn func(task int)) error
}

// gemmMinBandRows is the smallest row band worth a parallel task: below
// this, packing overhead dominates and the serial path wins.
const gemmMinBandRows = 32

// bandState carries one GemmParallelPacked call's parameters to its band
// closure. Instances are pooled and each carries its fn (a closure over the
// instance) built once at first allocation, so a steady-state parallel call
// creates no funcval and captures nothing on the heap.
type bandState struct {
	pa             *PackedA
	transA, transB bool
	m, n, k        int
	alpha, beta    float32
	a, b, c        []float32
	epi            GemmEpilogue
	lv             ISA
	bands          int
	quo, rem       int // whole MR strips per band, and how many bands take one more
	fn             func(int)
}

var bandPool = sync.Pool{New: func() any {
	st := &bandState{}
	st.fn = st.run
	return st
}}

// run computes one row band: disjoint rows, same blocked kernel, same panel
// geometry and ascending-k order as the serial path. Band edges fall on
// whole MR strips (the last band takes the remainder rows), so a band's
// panels are whole strips of a PackedA.
func (st *bandState) run(band int) {
	mr := st.lv.mr()
	s0 := band*st.quo + min(band, st.rem)
	i0, i1 := s0*mr, (s0+st.quo)*mr
	if band < st.rem {
		i1 += mr
	}
	if band == st.bands-1 {
		i1 = st.m
	}
	gemmRows(st.lv, st.pa, st.transA, st.transB, i0, i1, st.m, st.n, st.k, st.alpha, st.a, st.b, st.beta, st.c, st.epi)
}

// GemmParallelPacked is Gemm with the rows of C sharded into disjoint bands
// executed via p, an optional fused epilogue and an optional packed A. Every
// band computes its rows with the same blocked kernel, the same panel
// geometry, and the same ascending-k accumulation the serial path uses, and
// bands touch disjoint C rows — so the result is bit-identical to Gemm at
// every band count, which is what makes the mode safe to enable under the
// convergence-invariance contract. A nil p, a single worker, or a small M
// runs the serial kernel. Each band applies epi to its own completed rows.
// A non-nil pa must hold pa.Pack(transA, m, k, alpha, a): the product reads
// op(A) from it instead of packing per call, on the rung it was packed for.
func GemmParallelPacked(p RowParallel, pa *PackedA, transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32, epi GemmEpilogue) {
	checkGemmDims(transA, transB, m, n, k, a, b, c)
	lv := ActiveISA() // read once: every band runs the same kernel
	if pa != nil {
		if pa.buf == nil || pa.transA != transA || pa.m != m || pa.k != k || pa.alpha != alpha {
			panic("tensor: packed A released, or packed for another transA, shape or alpha")
		}
		lv = pa.lv
	}
	if m == 0 || n == 0 {
		return
	}
	bands := 0
	if p != nil {
		bands = min(p.Workers(), m/gemmMinBandRows)
	}
	if bands <= 1 {
		gemmRows(lv, pa, transA, transB, 0, m, m, n, k, alpha, a, b, beta, c, epi)
		return
	}
	st := bandPool.Get().(*bandState)
	st.pa = pa
	st.transA, st.transB = transA, transB
	st.m, st.n, st.k = m, n, k
	st.alpha, st.beta = alpha, beta
	st.a, st.b, st.c = a, b, c
	st.epi = epi
	st.lv = lv
	st.bands = bands
	st.quo, st.rem = m/lv.mr()/bands, m/lv.mr()%bands
	err := p.Run(bands, st.fn)
	st.pa, st.a, st.b, st.c, st.epi = nil, nil, nil, nil, nil // no liveness past the call
	bandPool.Put(st)
	if err != nil {
		// A band panic is a programming error (bad dims slipped past the
		// checks); re-panic like the serial kernel would, now with every
		// band accounted for instead of a dead worker goroutine.
		panic(err)
	}
}

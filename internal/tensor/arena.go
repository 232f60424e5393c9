package tensor

import (
	"math/bits"
	"sync"
)

// Shared scratch-buffer arena. The dnn layers draw their per-pass scratch —
// im2col column buffers, backward column gradients, per-chain weight-gradient
// partials — from this arena instead of holding
// private allocations, so one net's layers (and many nets in a sweep) reuse
// the same slabs and peak scratch memory tracks the largest layer rather
// than the sum of all layers.
//
// Ownership rules:
//   - GetBuf(n) returns a *Buf with len(Data) == n and UNSPECIFIED contents;
//     callers must fully overwrite (or explicitly zero) before reading.
//   - The caller that Gets a Buf owns it until it calls Put; after Put the
//     Buf and its Data must not be touched. In the dnn layers this means
//     Put only after the batch barrier that retires every kernel closure
//     referencing the buffer.
//   - Bufs are safe to Get/Put from concurrent goroutines (it is a
//     sync.Pool underneath), but an individual Buf is not a shared object.
//
// Capacities are rounded up to powers of two so different request sizes
// share slabs; a warm Get/Put cycle performs zero heap allocations.

// Buf is one scratch slab leased from the arena.
type Buf struct {
	Data []float32
}

// bufPools[i] holds Bufs whose capacity is exactly 1<<i.
var bufPools [33]sync.Pool

// bufBucket returns the pool index for a request of n elements.
func bufBucket(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// GetBuf leases a slab with len(Data) == n from the arena. Contents are
// unspecified — the owner must write before reading.
func GetBuf(n int) *Buf {
	if n < 0 {
		panic("tensor: GetBuf negative size")
	}
	bkt := bufBucket(n)
	if v := bufPools[bkt].Get(); v != nil {
		b := v.(*Buf)
		b.Data = b.Data[:n]
		return b
	}
	return &Buf{Data: make([]float32, 1<<bkt)[:n]}
}

// GetZeroBuf leases a slab like GetBuf and zero-fills it.
func GetZeroBuf(n int) *Buf {
	b := GetBuf(n)
	zeroFill(b.Data)
	return b
}

// Put returns the slab to the arena. The Buf must have come from GetBuf and
// must not be used afterwards.
func (b *Buf) Put() {
	c := cap(b.Data)
	if c == 0 || c&(c-1) != 0 {
		// Not an arena slab (zero-size lease or foreign slice): drop it.
		return
	}
	b.Data = b.Data[:c]
	bufPools[bits.Len(uint(c))-1].Put(b)
}

// LeaseInto fills dst with count freshly leased n-element slabs, reusing
// dst's backing array when it is large enough (layers keep the slice across
// passes so a steady-state lease allocates nothing), and returns the slice.
func LeaseInto(dst []*Buf, count, n int) []*Buf {
	dst = dst[:0]
	for i := 0; i < count; i++ {
		dst = append(dst, GetBuf(n))
	}
	return dst
}

// PutBufs returns every slab in bufs to the arena and nils the entries.
func PutBufs(bufs []*Buf) {
	for i, b := range bufs {
		if b != nil {
			b.Put()
			bufs[i] = nil
		}
	}
}

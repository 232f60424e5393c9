package data

import (
	"sync"
	"testing"
	"time"
)

func tinyCountingPrefetcher() *Prefetcher {
	n := float32(0)
	gen := func(planes [][]float32, labels []float32) {
		for i := range planes[0] {
			planes[0][i] = n
			n++
		}
	}
	return NewSerialPrefetcher([]int{4}, 0, gen, Options{})
}

// TestPrefetcherCloseIdempotent: Close twice sequentially and many times
// concurrently — no panic on the already-closed stop or worker channels.
func TestPrefetcherCloseIdempotent(t *testing.T) {
	pf := tinyCountingPrefetcher()
	b := pf.Next()
	if b == nil {
		t.Fatal("Next returned nil on a live pipeline")
	}
	pf.Recycle(b)
	pf.Close()
	pf.Close()

	pf = tinyCountingPrefetcher()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pf.Close()
		}()
	}
	wg.Wait()
}

// TestPrefetcherCloseThenNext: after Close, Next drains the batches that
// were already synthesized and then returns nil — it must not block
// forever on the dead producer.
func TestPrefetcherCloseThenNext(t *testing.T) {
	pf := tinyCountingPrefetcher()
	// Let the producer fill the ring so the post-Close drain has content.
	time.Sleep(10 * time.Millisecond)
	pf.Close()

	got := make(chan int, 1)
	go func() {
		n := 0
		for pf.Next() != nil {
			n++
		}
		got <- n
	}()
	select {
	case n := <-got:
		if n > ringDepth {
			t.Fatalf("drained %d batches from a depth-%d ring", n, ringDepth)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next deadlocked after Close")
	}
	if pf.Next() != nil {
		t.Fatal("Next after drain must keep returning nil")
	}
}

// TestPrefetcherCloseUnblocksParkedNext: a consumer already parked inside
// Next when Close lands must wake up instead of waiting forever.
func TestPrefetcherCloseUnblocksParkedNext(t *testing.T) {
	pf := tinyCountingPrefetcher()
	// Drain everything the pipeline will produce without recycling, so the
	// next call parks on an empty ready queue with no free buffers.
	var held []*Batch
	deadline := time.Now().Add(2 * time.Second)
	for len(held) < ringDepth && time.Now().Before(deadline) {
		if b := pf.Next(); b != nil {
			held = append(held, b)
		}
	}
	if len(held) != ringDepth {
		t.Fatalf("held %d batches, want the full depth-%d ring", len(held), ringDepth)
	}

	parked := make(chan *Batch, 1)
	go func() { parked <- pf.Next() }()
	time.Sleep(10 * time.Millisecond)
	pf.Close()
	select {
	case b := <-parked:
		if b != nil {
			t.Fatal("parked Next returned a batch from a starved pipeline")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked Next not released by Close")
	}
	// Held buffers stay valid and recyclable after Close.
	for _, b := range held {
		if len(b.Planes[0]) != 4 {
			t.Fatal("held buffer corrupted by Close")
		}
		pf.Recycle(b)
	}
}

// TestPrefetcherCloseAfterRollback: Rollback relaunches the producer with
// fresh stop/joined channels; the Close that follows must halt that
// incarnation, and Rollback after Close must be a no-op.
func TestPrefetcherCloseAfterRollback(t *testing.T) {
	pf := tinyCountingPrefetcher()
	b := pf.Next()
	pf.Recycle(b)
	pf.Rollback()
	pf.Close()
	pf.Rollback()
	pf.Close()
}

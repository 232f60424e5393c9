//go:build linux

package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns at least n floats of storage whose last element is
// followed by an inaccessible page: a slice cut from its end (tail) turns
// any read or write past len — which Go's bounds checks cannot see inside
// an assembly kernel — into a fault instead of a silent overrun.
func guardedFloats(t testing.TB, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test scratch: nothing to do about a failed unmap
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), size/4)
}

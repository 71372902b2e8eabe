package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// recordsPerCallerSecond bounds how many operations one caller can record
// per measured second. The closed loops run at most a few hundred
// operations per caller-second; the space beyond what a run writes is
// address space only, never touched.
const recordsPerCallerSecond = 20000

// offHeap is a fixed-capacity list of records kept in anonymous memory
// mapped outside the Go heap. A closed loop records every operation while
// the window is open; kept on the heap, those records would grow the live
// heap with the run's progress, and the garbage collector, which paces
// itself by the live heap, would then collect less often the further a
// run got, so the program ran faster in a run that went faster. Off the
// heap they neither move the collector's pacing nor count in
// heap_peak_mb.
//
// T must hold no pointers: the collector does not scan this memory.
type offHeap[T any] struct {
	mem  []byte
	recs []T
}

func newOffHeap[T any](capacity int) (*offHeap[T], error) {
	size := capacity * int(unsafe.Sizeof(*new(T)))
	if capacity < 1 || size < 1 {
		return nil, fmt.Errorf("off-heap records: capacity %d", capacity)
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("off-heap records: %w", err)
	}
	return &offHeap[T]{mem: mem, recs: unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), capacity)[:0]}, nil
}

// add appends r, reporting false when the list is full.
func (o *offHeap[T]) add(r T) bool {
	if len(o.recs) == cap(o.recs) {
		return false
	}
	o.recs = append(o.recs, r)
	return true
}

// free unmaps the memory; the records must not be used afterwards.
func (o *offHeap[T]) free() {
	if o.mem != nil {
		_ = syscall.Munmap(o.mem)
		o.mem, o.recs = nil, nil
	}
}

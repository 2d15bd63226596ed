package tensor

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The shared float free list: one process-wide, length-keyed stock of idle
// float32 buffers for everything sized by a volume or by a network geometry
// — normalised training images, the flood's visited set and mask bits, the
// per-worker inference scratch buffers, a training job's whole model (its
// parameter vector and the optimizer's momentum) and working arrays, and
// the conv kernels' own temporaries (padded inputs, the backward's
// transposed gradOut and flipped weights). A job builds its own volumes,
// and a training job its own network, so a list hanging off either is
// always cold; this one survives from job to job.
//
// It is a mutex-guarded LIFO rather than a sync.Pool: buffers must survive
// between jobs deterministically (the runtime may drop pool entries at any
// GC, and the race detector drops them eagerly), and a job borrows a few
// dozen buffers in total, so the lock is nowhere near any kernel loop.
//
// Buffers come back dirty: a borrower that needs zeros clears them. Nothing
// is ever required to come back — a buffer that is not returned is
// ordinary garbage.

// maxFreeBytes and maxFreeLens cap what the list retains: idle bytes, and
// distinct lengths it keeps a (possibly empty) stack for. Returning a buffer
// that would push it past either cap empties the list first: the list then
// refills with the sizes in use now, so a burst of unusual lengths cannot
// leave it full of buffers nobody asks for again.
const (
	maxFreeBytes = 64 << 20
	maxFreeLens  = 1024
)

var freeList = struct {
	mu    sync.Mutex
	bytes int
	byLen map[int][][]float32
}{byLen: make(map[int][][]float32)}

// poisonReleased is set by tests only (PoisonReleased).
var poisonReleased atomic.Bool

// PoisonReleased makes PutFloats overwrite every buffer it is handed with
// NaN, so a read of released memory changes a result digest instead of
// passing unnoticed. Test support for the bit-exactness suites of the
// packages built on the list (they cannot reach an export_test.go here);
// no flag, config field or environment variable sets it.
func PoisonReleased(on bool) { poisonReleased.Store(on) }

// GetFloats borrows a buffer of exactly n elements with unspecified
// contents.
func GetFloats(n int) []float32 {
	freeList.mu.Lock()
	if l := freeList.byLen[n]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		freeList.byLen[n] = l[:len(l)-1] // an emptied stack keeps its capacity
		freeList.bytes -= 4 * n
		freeList.mu.Unlock()
		return b
	}
	freeList.mu.Unlock()
	return make([]float32, n)
}

// PutFloats gives a buffer to the list. The caller must hold the only live
// reference: not a sub-slice of something else, and not used afterwards.
func PutFloats(b []float32) {
	n := len(b)
	if n == 0 || 4*n > maxFreeBytes {
		return
	}
	if poisonReleased.Load() {
		nan := float32(math.NaN())
		for i := range b {
			b[i] = nan
		}
	}
	freeList.mu.Lock()
	l, known := freeList.byLen[n]
	if freeList.bytes+4*n > maxFreeBytes || (!known && len(freeList.byLen) >= maxFreeLens) {
		clear(freeList.byLen)
		freeList.bytes = 0
		l = nil
	}
	freeList.byLen[n] = append(l, b)
	freeList.bytes += 4 * n
	freeList.mu.Unlock()
}

// view reinterprets a slice of one 4-byte, pointer-free element type as
// another: float32, uint32 and int32 share size and alignment, so one stock
// of float32 buffers serves all three.
func view[To, From float32 | uint32 | int32](s []From) []To {
	return unsafe.Slice((*To)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// GetWords borrows n uint32 words with unspecified contents from the float
// list.
func GetWords(n int) []uint32 { return view[uint32](GetFloats(n)) }

// PutWords returns a GetWords buffer.
func PutWords(w []uint32) { PutFloats(view[float32](w)) }

// GetInt32s and PutInt32s are GetWords and PutWords for []int32.
func GetInt32s(n int) []int32 { return view[int32](GetFloats(n)) }

// PutInt32s returns a GetInt32s buffer.
func PutInt32s(w []int32) { PutFloats(view[float32](w)) }

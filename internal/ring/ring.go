// Package ring provides a preallocated, growable ring buffer for the
// simulator's hot-path queues (NOC delivery FIFOs, MRQ send queues, DRAM
// per-channel request buffers). Unlike an appended-and-copied slice, a
// ring reaches a steady state after warmup: pushes and pops stop touching
// the allocator entirely, and popping the front is O(1) instead of the
// O(n) copy-down a slice queue pays.
package ring

// Buffer is a FIFO ring over a power-of-two backing array. The zero value
// is an empty, ready-to-use buffer (the first Push allocates). It is
// single-threaded, like the simulation phases that own its instances.
type Buffer[T any] struct {
	buf  []T // len(buf) is a power of two (or 0 before first use)
	head int // index of the front element
	n    int // live elements
}

const minCap = 8

// Len reports the number of buffered elements.
func (b *Buffer[T]) Len() int { return b.n }

// Cap reports the current backing-array capacity.
func (b *Buffer[T]) Cap() int { return len(b.buf) }

// Push appends v at the back, growing the backing array (by doubling)
// only when full — steady-state pushes never allocate.
func (b *Buffer[T]) Push(v T) {
	if b.n == len(b.buf) {
		b.grow()
	}
	b.buf[(b.head+b.n)&(len(b.buf)-1)] = v
	b.n++
}

// Pop removes and returns the front element; ok=false when empty. The
// vacated slot is zeroed so the buffer never retains pointers to popped
// elements.
func (b *Buffer[T]) Pop() (v T, ok bool) {
	if b.n == 0 {
		return v, false
	}
	v = b.buf[b.head]
	var zero T
	b.buf[b.head] = zero
	b.head = (b.head + 1) & (len(b.buf) - 1)
	b.n--
	return v, true
}

// Front returns the front element without removing it; ok=false when
// empty.
func (b *Buffer[T]) Front() (v T, ok bool) {
	if b.n == 0 {
		return v, false
	}
	return b.buf[b.head], true
}

// At returns the i-th element from the front (0 = front). The caller
// must keep i within [0, Len()).
func (b *Buffer[T]) At(i int) T {
	return b.buf[(b.head+i)&(len(b.buf)-1)]
}

// Set replaces the i-th element from the front. The caller must keep i
// within [0, Len()).
func (b *Buffer[T]) Set(i int, v T) {
	b.buf[(b.head+i)&(len(b.buf)-1)] = v
}

// RemoveAt deletes and returns the i-th element from the front,
// preserving the relative order of the survivors. It shifts whichever
// side of the ring is shorter, so removing near either end is cheap and
// a middle removal costs at most Len()/2 moves.
func (b *Buffer[T]) RemoveAt(i int) T {
	v := b.At(i)
	mask := len(b.buf) - 1
	if i < b.n-1-i {
		// Shift the front segment [0, i) back by one.
		for j := i; j > 0; j-- {
			b.Set(j, b.At(j-1))
		}
		var zero T
		b.buf[b.head] = zero
		b.head = (b.head + 1) & mask
	} else {
		// Shift the back segment (i, n) forward by one.
		for j := i; j < b.n-1; j++ {
			b.Set(j, b.At(j+1))
		}
		var zero T
		b.buf[(b.head+b.n-1)&mask] = zero
	}
	b.n--
	return v
}

// grow doubles the backing array and re-linearises the elements so the
// front lands at index 0.
func (b *Buffer[T]) grow() {
	newCap := len(b.buf) * 2
	if newCap == 0 {
		newCap = minCap
	}
	nb := make([]T, newCap)
	for i := 0; i < b.n; i++ {
		nb[i] = b.buf[(b.head+i)&(len(b.buf)-1)]
	}
	b.buf = nb
	b.head = 0
}

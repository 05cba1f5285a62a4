package graph

// MinHeap is a binary min-heap of packed (priority, value) keys. It backs
// the A* open set in the braiding path-finder. The zero value is an empty
// heap ready to use.
//
// A key is the priority above 26 bits of value (HeapKey), so a comparison
// is one integer compare and orders exactly as (priority, value), ties
// broken by lower value for determinism. That holds for priorities in
// [0, 2^38) and values in [0, HeapValueLimit). A* pushes vertex ids and
// f-scores: a grid of sched.MaxGridTiles (2^22) tiles has fewer than
// 2^24 routing vertices, so an f-score stays below 2^25 and its
// congestion-shifted form f<<10|c below 2^35.
type MinHeap struct {
	keys []uint64
}

// HeapKey packs one (value, priority) entry of a MinHeap; keys order as
// their (priority, value) pairs.
type HeapKey uint64

// heapValueBits is the width of the value field of a HeapKey.
const heapValueBits = 26

// HeapValueLimit bounds the values a MinHeap holds: 0 ≤ value < 2^26.
const HeapValueLimit = 1 << heapValueBits

const heapValueMask = HeapValueLimit - 1

// NoHeapKey orders after every key PackKey can build, so it serves as an
// "absent" sentinel.
const NoHeapKey = ^HeapKey(0)

// PackKey builds the key of value at priority; 0 ≤ value < HeapValueLimit
// and 0 ≤ priority < 2^38.
func PackKey(value, priority int) HeapKey {
	return HeapKey(uint64(priority)<<heapValueBits | uint64(value))
}

// Value returns the value field of k.
func (k HeapKey) Value() int { return int(k & heapValueMask) }

// Len returns the number of queued items.
func (h *MinHeap) Len() int { return len(h.keys) }

// Min returns the smallest queued key without removing it; NoHeapKey on
// an empty heap.
func (h *MinHeap) Min() HeapKey {
	if len(h.keys) == 0 {
		return NoHeapKey
	}
	return HeapKey(h.keys[0])
}

// Push adds key k.
func (h *MinHeap) Push(k HeapKey) {
	key := uint64(k)
	h.keys = append(h.keys, key)
	i := len(h.keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if key >= h.keys[parent] {
			break
		}
		h.keys[i] = h.keys[parent]
		i = parent
	}
	h.keys[i] = key
}

// Pop removes and returns the smallest key. It panics on an empty heap;
// callers check Len first.
func (h *MinHeap) Pop() HeapKey {
	top := h.keys[0]
	last := len(h.keys) - 1
	key := h.keys[last]
	h.keys = h.keys[:last]
	if last > 0 {
		// Sift the last key down from the root, moving smaller children up.
		i := 0
		for {
			l := 2*i + 1
			if l >= last {
				break
			}
			c := l
			if r := l + 1; r < last && h.keys[r] < h.keys[l] {
				c = r
			}
			if key <= h.keys[c] {
				break
			}
			h.keys[i] = h.keys[c]
			i = c
		}
		h.keys[i] = key
	}
	return HeapKey(top)
}

// Reset empties the heap while keeping its backing storage for reuse.
func (h *MinHeap) Reset() { h.keys = h.keys[:0] }

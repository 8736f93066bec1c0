// Package fifo is the machine's bounded-queue helper: a FIFO whose storage
// is allocated once, when its owner is built, and never grows. The store
// buffer, the persist path's front-end buffer and its controller channels
// all use it, so stepping a machine allocates nothing per entry.
//
// A queue is two slices: buf, the storage (from Storage), and q, the live
// entries, a window of buf that the owner reads as an ordinary slice,
// oldest first. A pop advances the head (q = q[1:]); Push appends.
package fifo

// Storage returns the storage of a queue of at most bound entries: twice
// the bound, so that Push slides at most once per bound pushes.
func Storage[T any](bound int) []T { return make([]T, 2*bound) }

// Push appends v to the queue q whose storage is buf and returns the new
// window. When q has reached the end of buf, Push first slides the live
// entries back to buf's front, so each entry is copied at most once on
// average. A nil q (an emptied queue) starts over at buf's front. The
// caller keeps len(q) within the bound.
func Push[T any](buf, q []T, v T) []T {
	if len(q) == cap(q) {
		q = buf[:copy(buf, q)]
	}
	return append(q, v)
}

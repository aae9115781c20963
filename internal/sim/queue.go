package sim

// This file implements the event queue of the kernel's hot path. Two
// structures cooperate:
//
//   - nowRing: a FIFO ring buffer holding events scheduled for the
//     current instant (t == now). The overwhelming majority of events
//     in a message-heavy simulation are same-instant wake-ups
//     (completion fires, proc resumes), and for those insertion order
//     IS (time, seq) order, so a ring append/pop is exact.
//
//   - calendarQueue: a Brown-style calendar queue for future events
//     (t > now), with power-of-two bucket counts, sorted buckets, and
//     a cached minimum. Events map to bucket (t/width) & mask and each
//     bucket stays sorted by (at, seq), so the queue as a whole pops
//     in exact (time, seq) order.
//
// Events are small by-value records; the ring and bucket storage act
// as the kernel-owned free list — slots are recycled in place and the
// steady state allocates nothing per event.
//
// Ordering proof for the two-tier split (see DESIGN.md §12): a
// calendar event with at == now was necessarily inserted while
// now < at (insertions at the current instant go to the ring), hence
// strictly earlier, hence with a smaller seq than every ring event.
// So popping the calendar while its minimum is <= now, then the ring,
// then advancing to the calendar minimum reproduces the exact global
// (at, seq) order of a single heap.

// evKind discriminates the typed event payloads. A small closed enum
// replaces the old closure-per-event representation: the dominant
// kinds carry only a pointer and an integer, so scheduling them
// allocates nothing.
type evKind uint8

const (
	// evFunc runs an arbitrary deferred function (cold paths,
	// user-facing Kernel.At).
	evFunc evKind = iota
	// evResume unconditionally resumes a parked proc.
	evResume
	// evResumeIf resumes a proc only if it is still parked on the
	// guarded wait armed with aux (see Proc.waitSeq).
	evResumeIf
	// evFire fires a completion if its generation still equals aux;
	// a recycled completion dissolves the event.
	evFire
	// evRun invokes a Runnable payload — a pooled record scheduled by
	// a higher layer (e.g. an MPI transfer delivery) in place of a
	// closure.
	evRun
)

// Runnable is a schedulable event payload. Higher layers implement it
// on pooled records and schedule them with Kernel.AtRun so the hot
// path carries no closures.
type Runnable interface {
	RunEvent(k *Kernel)
}

// event is a typed, by-value event record. Exactly one payload field
// is meaningful, selected by kind. Events live by value inside the
// ring and calendar buckets; they are never heap-allocated
// individually.
type event struct {
	at   Time
	seq  uint64
	aux  uint64 // evResumeIf: armed wait seq; evFire: completion generation
	p    *Proc
	c    *Completion
	fn   func()
	run  Runnable
	kind evKind
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// nowRing is a FIFO ring of events due at the current instant.
type nowRing struct {
	buf  []event // power-of-two length
	head int
	n    int
}

func (r *nowRing) len() int { return r.n }

// push appends e; steady state touches only an existing slot.
//
//scaffe:hotpath
func (r *nowRing) push(e event) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

// pop removes and returns the oldest event, zeroing the slot so the
// ring does not pin dead payloads.
//
//scaffe:hotpath
func (r *nowRing) pop() event {
	e := r.buf[r.head]
	r.buf[r.head] = event{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}

// grow doubles the ring (cold path: runs O(log n) times ever).
//
//scaffe:coldpath capacity doubling runs O(log n) times ever; amortized out of steady state
func (r *nowRing) grow() {
	size := 2 * len(r.buf)
	if size < 64 {
		size = 64
	}
	nb := make([]event, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}

const minBuckets = 16

// calendarQueue holds future events bucketed by time. count/width
// resize keeps O(1) amortized operations; the cached minimum makes
// the peek in the kernel's pop rule free in the common case.
//
// Each bucket is consumed through a head cursor (heads[i]) instead of
// shifting the slice on every pop: with a same-instant wave of many
// events landing in one bucket (a 1024-rank compute phase), shifting
// would make draining the bucket quadratic. The live window of bucket
// i is buckets[i][heads[i]:]; the dead prefix is compacted away when
// an insert needs room.
type calendarQueue struct {
	buckets [][]event
	heads   []int
	mask    int
	width   Time
	count   int
	// lastAt is a lower bound on the queue minimum; the year-scan in
	// locate starts from its bucket.
	lastAt Time
	// Cached location of the global minimum (always index 0 of
	// cacheBucket). Invalidated by pop and resize; maintained by
	// insert.
	cacheOK     bool
	cacheBucket int
	cacheAt     Time
	cacheSeq    uint64
	spill       []event // scratch for resize
}

// insert places e into its bucket, keeping the bucket sorted by
// (at, seq). Bucket growth and table resize live in cold helpers.
//
//scaffe:hotpath
func (q *calendarQueue) insert(e event) {
	if len(q.buckets) == 0 {
		q.reinit(minBuckets, 1)
	}
	if e.at < q.lastAt {
		q.lastAt = e.at
	}
	b := int(e.at/q.width) & q.mask
	bk := q.buckets[b]
	h := q.heads[b]
	n := len(bk)
	if n == cap(bk) {
		if h > 0 {
			// Reclaim the dead prefix before growing: slide the live
			// window to the front.
			n = copy(bk, bk[h:])
			for i := n; i < len(bk); i++ {
				bk[i] = event{}
			}
			bk = bk[:n]
			h = 0
			q.heads[b] = 0
		} else {
			bk = growEvents(bk)
		}
	}
	// Binary search for the insertion point within the live window.
	lo, hi := h, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if eventLess(e, bk[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if h > 0 && lo-h <= n-lo {
		// Shifting the (shorter) left side into the dead prefix avoids
		// touching the tail; the window grows one slot leftward.
		copy(bk[h-1:], bk[h:lo])
		bk[lo-1] = e
		q.heads[b] = h - 1
	} else {
		bk = bk[: n+1 : cap(bk)]
		copy(bk[lo+1:], bk[lo:n])
		bk[lo] = e
	}
	q.buckets[b] = bk
	q.count++
	if q.cacheOK && (e.at < q.cacheAt || (e.at == q.cacheAt && e.seq < q.cacheSeq)) {
		// A new global minimum always lands at the head of its bucket.
		q.cacheBucket, q.cacheAt, q.cacheSeq = b, e.at, e.seq
	}
	if q.count > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

// pop removes and returns the minimum event. Removal advances the
// bucket's head cursor (O(1)); when the next event in the same bucket
// still lies inside the popped event's calendar month, it is provably
// the new global minimum (same argument as locate's year scan), so the
// cache survives the pop and draining a same-month wave of n events
// costs O(n) total.
//
//scaffe:hotpath
func (q *calendarQueue) pop() event {
	q.locate()
	b := q.cacheBucket
	bk := q.buckets[b]
	h := q.heads[b]
	e := bk[h]
	bk[h] = event{}
	h++
	if h == len(bk) {
		q.buckets[b] = bk[:0]
		q.heads[b] = 0
		h = len(bk) // empty window below
	} else {
		q.heads[b] = h
	}
	q.count--
	if h < len(bk) && bk[h].at < (e.at/q.width+1)*q.width {
		q.cacheAt, q.cacheSeq = bk[h].at, bk[h].seq
		q.lastAt = bk[h].at
	} else {
		q.cacheOK = false
	}
	if q.count < len(q.buckets)/4 && len(q.buckets) > minBuckets {
		q.resize(len(q.buckets) / 2)
	}
	return e
}

// minTime reports the (time) of the minimum event, if any.
//
//scaffe:hotpath
func (q *calendarQueue) minTime() (Time, bool) {
	if q.count == 0 {
		return 0, false
	}
	q.locate()
	return q.cacheAt, true
}

// locate finds the global minimum and caches its bucket. The scan
// visits buckets in year order starting from lastAt's bucket: the
// first head event lying inside the bucket's current year is the
// global minimum (all later buckets' events are provably later; see
// file comment). If a whole year holds nothing, fall back to a direct
// scan of bucket heads.
//
//scaffe:hotpath
func (q *calendarQueue) locate() {
	if q.cacheOK || q.count == 0 {
		return
	}
	w := q.width
	year := q.lastAt / w
	i := int(year) & q.mask
	top := (year + 1) * w
	for range q.buckets {
		bk := q.buckets[i]
		if h := q.heads[i]; h < len(bk) && bk[h].at < top {
			q.cacheOK, q.cacheBucket, q.cacheAt, q.cacheSeq = true, i, bk[h].at, bk[h].seq
			q.lastAt = bk[h].at
			return
		}
		i = (i + 1) & q.mask
		top += w
	}
	best := -1
	for bi := range q.buckets {
		h := q.heads[bi]
		bk := q.buckets[bi]
		if h >= len(bk) {
			continue
		}
		if best < 0 || eventLess(bk[h], q.buckets[best][q.heads[best]]) {
			best = bi
		}
	}
	h := q.heads[best]
	bk := q.buckets[best]
	q.cacheOK, q.cacheBucket, q.cacheAt, q.cacheSeq = true, best, bk[h].at, bk[h].seq
	q.lastAt = bk[h].at
}

// reinit replaces the bucket table (cold path). Bucket backing arrays
// are recycled across resizes: a same-instant wave repeatedly grows one
// bucket to the wave size, and reallocating every bucket from scratch
// on each resize made that growth a dominant allocation source. The
// recycled arrays keep their high-water capacity; stale values beyond
// the emptied length are never read (the live window is [head:len)) and
// are overwritten or zeroed by pops as the slots are reused.
//
//scaffe:coldpath table rebuild is a resize event, amortized out of steady state
func (q *calendarQueue) reinit(nbuckets int, width Time) {
	old := q.buckets
	if cap(old) >= nbuckets {
		if len(old) > nbuckets {
			// Shrinking: empty the dropped tail headers in place, so a
			// later regrow through the shared backing array can never
			// resurrect stale contents (headers beyond the table length
			// are always length-zero).
			tail := old[nbuckets:]
			for i := range tail {
				tail[i] = tail[i][:0]
			}
		}
		q.buckets = old[:nbuckets]
	} else {
		nb := make([][]event, nbuckets)
		copy(nb, old)
		q.buckets = nb
	}
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	if cap(q.heads) >= nbuckets {
		q.heads = q.heads[:nbuckets]
		for i := range q.heads {
			q.heads[i] = 0
		}
	} else {
		q.heads = make([]int, nbuckets)
	}
	q.mask = nbuckets - 1
	q.width = width
	q.count = 0
	q.cacheOK = false
}

// resize rebuilds the table with nb buckets, recomputing the bucket
// width from the current spread so occupancy stays near-uniform. The
// choice is a deterministic function of queue contents, so replays
// resize identically.
//
//scaffe:coldpath resize runs O(log n) times for n events; amortized out of steady state
func (q *calendarQueue) resize(nb int) {
	all := q.spill[:0]
	for bi, bk := range q.buckets {
		all = append(all, bk[q.heads[bi]:]...)
	}
	var minAt, maxAt Time
	for i, e := range all {
		if i == 0 || e.at < minAt {
			minAt = e.at
		}
		if i == 0 || e.at > maxAt {
			maxAt = e.at
		}
	}
	width := Time(1)
	if len(all) > 1 {
		width = (maxAt - minAt) / Time(len(all))
		if width < 1 {
			width = 1
		}
	}
	lastAt := q.lastAt
	q.reinit(nb, width)
	for _, e := range all {
		q.insert(e)
	}
	q.lastAt = lastAt
	for i := range all {
		all[i] = event{}
	}
	q.spill = all[:0]
}

// growEvents returns a copy of bk with doubled capacity (cold path).
//
//scaffe:coldpath bucket doubling is amortized out of steady state
func growEvents(bk []event) []event {
	size := 2 * cap(bk)
	if size < 8 {
		size = 8
	}
	nb := make([]event, len(bk), size)
	copy(nb, bk)
	return nb
}

// eventHeap is the original binary-heap event queue. The kernel no
// longer uses it — it survives as the reference ordering oracle for
// the calendar queue's differential tests. The sift routines are
// hand-rolled and monomorphic: the old container/heap implementation
// boxed every event through `any` on Push and Pop, allocating on each
// queue operation.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) peek() event { return h[0] }

func (h *eventHeap) pushEvent(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) popEvent() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{}
	s = s[:n]
	*h = s
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && eventLess(s[right], s[left]) {
			min = right
		}
		if !eventLess(s[min], s[i]) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

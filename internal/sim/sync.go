package sim

// waiter records a proc parked on a completion together with the wait
// sequence it armed, so the wake-up can verify the proc is still
// parked on that same wait (it may have timed out and moved on).
type waiter struct {
	p   *Proc
	seq uint64
}

// Completion is a one-shot event that procs can wait on. It is created
// un-fired; Fire releases all current and future waiters. Completions
// are the simulation analogue of a chan struct{} that is closed once.
//
// Completions may be pooled (GetCompletion/PutCompletion, or embedded
// in a pooled owner that calls reset). Every recycle bumps the
// generation counter, so scheduled fires and other references taken
// against an earlier life (FireAt events, FireIf callers) dissolve
// instead of acting on the reused object. Together with the proc-side
// waitSeq guard this makes reuse safe under kills and timeouts.
type Completion struct {
	k       *Kernel
	fired   bool
	firedAt Time
	gen     uint64
	waiters []waiter
	cbs     []func()

	// w0 is the inline backing array for waiters: almost every
	// completion has exactly one waiting proc, so the common case never
	// touches the heap even for completions that are not pooled.
	w0 [2]waiter
}

// addWaiter parks w on the completion, pointing the waiter list at the
// inline backing array on first use.
func (c *Completion) addWaiter(w waiter) {
	if c.waiters == nil {
		c.waiters = c.w0[:0]
	}
	//scaffe:nolint hotpath append lands in the inline w0 backing array in the common case
	c.waiters = append(c.waiters, w)
}

// NewCompletion returns an un-fired completion bound to k.
func (k *Kernel) NewCompletion() *Completion { return &Completion{k: k} }

// GetCompletion returns an un-fired completion from the kernel's free
// list (allocating only when the pool is empty). Return it with
// PutCompletion once no live reference can fire or wait on it.
func (k *Kernel) GetCompletion() *Completion {
	if n := len(k.compPool); n > 0 {
		c := k.compPool[n-1]
		k.compPool[n-1] = nil
		k.compPool = k.compPool[:n-1]
		return c
	}
	//scaffe:nolint hotpath pool-miss construction; steady state hits the free list
	return &Completion{k: k}
}

// PutCompletion recycles c into the kernel's free list. The caller
// must own the only live handle; stale scheduled fires are harmless
// (the generation bump dissolves them).
func (k *Kernel) PutCompletion(c *Completion) {
	c.reset(k)
	//scaffe:nolint hotpath free-list release; append reuses capacity freed by the matching Get
	k.compPool = append(k.compPool, c)
}

// Init readies c for (re)use on kernel k: un-fired, no waiters or
// callbacks, generation bumped so references from a previous life
// dissolve. It is how pooled owners with embedded completions (mpi
// requests) recycle them; a zero-value embedded completion is
// initialized with the same call.
func (c *Completion) Init(k *Kernel) { c.reset(k) }

// reset returns c to the un-fired state for reuse, bumping the
// generation so events scheduled against the previous life dissolve.
// It also (re)binds the kernel, so zero-value embedded completions
// can be initialized with the same call.
func (c *Completion) reset(k *Kernel) {
	c.k = k
	c.gen++
	c.fired = false
	c.firedAt = 0
	for i := range c.waiters {
		c.waiters[i] = waiter{}
	}
	c.waiters = c.waiters[:0]
	for i := range c.cbs {
		c.cbs[i] = nil
	}
	c.cbs = c.cbs[:0]
}

// Fired reports whether the completion has fired.
func (c *Completion) Fired() bool { return c.fired }

// FiredAt returns the virtual time at which the completion fired; it
// is only meaningful when Fired is true.
func (c *Completion) FiredAt() Time { return c.firedAt }

// Gen returns the completion's current generation. Callers that stash
// a reference across a possible recycle pair it with FireIf.
func (c *Completion) Gen() uint64 { return c.gen }

// Fire marks the completion done at the current virtual time, wakes
// all waiters, and runs registered callbacks in kernel context. Firing
// twice is a no-op.
//
//scaffe:hotpath
func (c *Completion) Fire() {
	if c.fired {
		return
	}
	c.fired = true
	c.firedAt = c.k.now
	waiters := c.waiters
	for i, w := range waiters {
		c.k.atResumeIf(c.k.now, w.p, w.seq)
		waiters[i] = waiter{}
	}
	c.waiters = waiters[:0]
	cbs := c.cbs
	for i, fn := range cbs {
		c.k.At(c.k.now, fn)
		cbs[i] = nil
	}
	c.cbs = cbs[:0]
}

// FireIf fires the completion only if its generation still equals
// gen: a reference that survived a recycle becomes a no-op instead of
// spuriously completing the object's next life.
//
//scaffe:hotpath
func (c *Completion) FireIf(gen uint64) {
	if c.gen == gen {
		c.Fire()
	}
}

// FireAt schedules the completion to fire at virtual time t. The
// scheduled event is guarded by the current generation: recycling the
// completion before t dissolves it.
func (c *Completion) FireAt(t Time) {
	c.k.atFire(t, c)
}

// OnFire registers fn to run (in kernel context) when the completion
// fires. If it has already fired, fn is scheduled immediately.
func (c *Completion) OnFire(fn func()) {
	if c.fired {
		c.k.At(c.k.now, fn)
		return
	}
	//scaffe:nolint hotpath callback backing is kept by reset(); pooled completions reuse its capacity
	c.cbs = append(c.cbs, fn)
}

// Flag is a reusable binary condition used for intra-rank thread
// synchronization (the helper-thread/main-thread handshake of
// SC-OBR). Set wakes all waiters; the flag stays set until Clear.
type Flag struct {
	k       *Kernel
	set     bool
	waiters []*Proc
}

// NewFlag returns a cleared flag.
func (k *Kernel) NewFlag() *Flag { return &Flag{k: k} }

// Set raises the flag and wakes all waiting procs.
func (f *Flag) Set() {
	f.set = true
	for _, p := range f.waiters {
		f.k.wakeAt(p, f.k.now)
	}
	f.waiters = nil
}

// Clear lowers the flag.
func (f *Flag) Clear() { f.set = false }

// IsSet reports the flag state.
func (f *Flag) IsSet() bool { return f.set }

// WaitSet blocks p until the flag is set (returns immediately if
// already set).
func (f *Flag) WaitSet(p *Proc) {
	for !f.set {
		f.waiters = append(f.waiters, p)
		p.park()
	}
}

// Queue is an unbounded-or-bounded FIFO of values passed between
// procs, the simulation analogue of a buffered channel. A zero cap
// means unbounded.
type Queue struct {
	k       *Kernel
	items   []any
	cap     int
	getters []*Proc
	putters []*Proc
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func (k *Kernel) NewQueue(capacity int) *Queue {
	return &Queue{k: k, cap: capacity}
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Put appends v, blocking p while the queue is at capacity.
func (q *Queue) Put(p *Proc, v any) {
	for q.cap > 0 && len(q.items) >= q.cap {
		q.putters = append(q.putters, p)
		p.park()
	}
	q.items = append(q.items, v)
	q.wakeOneGetter()
}

// TryPut appends v without blocking; it reports false if the queue is
// full.
func (q *Queue) TryPut(v any) bool {
	if q.cap > 0 && len(q.items) >= q.cap {
		return false
	}
	q.items = append(q.items, v)
	q.wakeOneGetter()
	return true
}

// Get removes and returns the oldest item, blocking p while empty.
func (q *Queue) Get(p *Proc) any {
	for len(q.items) == 0 {
		//scaffe:nolint hotpath waiting-getter list reuses its high-water backing across iterations
		q.getters = append(q.getters, p)
		p.park()
	}
	v := q.items[0]
	q.items = q.items[1:]
	q.wakeOnePutter()
	return v
}

func (q *Queue) wakeOneGetter() {
	// Killed procs leave stale entries behind; skip them so a real
	// waiter is not starved of its wake-up.
	for len(q.getters) > 0 {
		p := q.getters[0]
		q.getters = q.getters[1:]
		if !p.finished {
			q.k.wakeAt(p, q.k.now)
			return
		}
	}
}

func (q *Queue) wakeOnePutter() {
	for len(q.putters) > 0 {
		p := q.putters[0]
		q.putters = q.putters[1:]
		if !p.finished {
			q.k.wakeAt(p, q.k.now)
			return
		}
	}
}

// Resource models a FIFO-served exclusive resource (a link, a DMA
// engine, a GPU stream) with a "busy until" horizon. Reservations do
// not require a proc: callers reserve a span and receive its start and
// end times; the caller is responsible for waiting if it wants
// blocking semantics.
type Resource struct {
	k         *Kernel
	busyUntil Time
	name      string
	busyTotal Duration
}

// NewResource returns an idle resource.
func (k *Kernel) NewResource(name string) *Resource {
	return &Resource{k: k, name: name}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Reserve books the resource for d starting no earlier than `from` and
// no earlier than the end of all previous reservations. It returns the
// start and end times of the booked span.
func (r *Resource) Reserve(from Time, d Duration) (start, end Time) {
	start = from
	if r.busyUntil > start {
		start = r.busyUntil
	}
	end = start + d
	r.busyUntil = end
	r.busyTotal += d
	return start, end
}

// FreeAt returns the earliest time at or after `from` at which the
// resource is idle.
func (r *Resource) FreeAt(from Time) Time {
	if r.busyUntil > from {
		return r.busyUntil
	}
	return from
}

// BusyTotal returns the cumulative reserved time, for utilization
// reporting.
func (r *Resource) BusyTotal() Duration { return r.busyTotal }

// Semaphore is a counting semaphore for procs.
type Semaphore struct {
	k       *Kernel
	permits int
	waiters []*Proc
}

// NewSemaphore returns a semaphore with n initial permits.
func (k *Kernel) NewSemaphore(n int) *Semaphore {
	return &Semaphore{k: k, permits: n}
}

// Acquire takes one permit, blocking p until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.permits == 0 {
		s.waiters = append(s.waiters, p)
		p.park()
	}
	s.permits--
}

// Release returns one permit and wakes a waiter if any (skipping
// waiters that have since been killed).
func (s *Semaphore) Release() {
	s.permits++
	for len(s.waiters) > 0 {
		p := s.waiters[0]
		s.waiters = s.waiters[1:]
		if !p.finished {
			s.k.wakeAt(p, s.k.now)
			return
		}
	}
}

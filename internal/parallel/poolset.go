package parallel

// PoolSet owns a fixed fleet of persistent Pools and checks them out to
// concurrent solves. A single Pool is driven by one goroutine at a time
// (ForChunks is not reentrant), so a serving layer that runs many solves at
// once cannot share one pool — but creating a pool per request would throw
// away the worker-reuse amortization the pool exists for. The set is the
// middle ground: count pools of procs workers each, created once, borrowed
// per solve, returned on completion.
//
// Get blocks until a pool is free, so a set sized to the admission-control
// in-flight limit never blocks in practice. All methods are safe for
// concurrent use; Close must be called once, after every borrowed pool has
// been returned.
type PoolSet struct {
	free  chan *Pool
	pools []*Pool
}

// NewPoolSet starts count pools of procs workers each (count and procs are
// treated as 1 when < 1).
func NewPoolSet(count, procs int) *PoolSet {
	if count < 1 {
		count = 1
	}
	s := &PoolSet{
		free:  make(chan *Pool, count),
		pools: make([]*Pool, count),
	}
	for i := range s.pools {
		s.pools[i] = NewPool(procs)
		s.free <- s.pools[i]
	}
	return s
}

// Get checks a pool out, blocking until one is free.
func (s *PoolSet) Get() *Pool { return <-s.free }

// Put returns a borrowed pool to the set.
func (s *PoolSet) Put(p *Pool) { s.free <- p }

// Close shuts every pool down. All borrowed pools must have been returned.
func (s *PoolSet) Close() {
	for _, p := range s.pools {
		p.Close()
	}
	s.pools = nil
	// Drain the free list so a late Get cannot hand out a closed pool's
	// stale pointer more than once; closed pools degrade to serial anyway.
	for {
		select {
		case <-s.free:
		default:
			return
		}
	}
}

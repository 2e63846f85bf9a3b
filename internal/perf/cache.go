package perf

// Cache is a set-associative cache with true-LRU replacement, simulated
// at line granularity. It is deliberately simple — no prefetching, no
// write-allocate distinction — because the paper's characterization
// relies on miss-rate differences between algorithms, which first-order
// capacity and conflict behaviour already exposes.
type Cache struct {
	lineShift uint
	setMask   uint64
	ways      int
	// tags[set*ways+way] holds line+1, so 0 marks an invalid way.
	// stamps[set*ways+way] is the tick of the way's last use; invalid
	// ways keep stamp 0, below every valid way's.
	tags   []uint64
	stamps []uint64
	tick   uint64

	accesses uint64
	misses   uint64
}

// NewCache builds a cache of (at most) sizeBytes with the given
// associativity and line size. The set count is rounded down to the
// nearest power of two so that indexing stays a mask; VM LLC slices
// (2 MiB x vCPUs for 1..8 vCPUs) therefore map to the closest
// realizable geometry. NewCache panics on non-positive geometry, a
// line size that is not a power of two of at least 2 bytes (so line+1
// never overflows the tag), or fewer than ways*lineBytes bytes.
func NewCache(sizeBytes, ways, lineBytes int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("perf: non-positive cache geometry")
	}
	if ways > 255 {
		panic("perf: associativity too large")
	}
	sets := sizeBytes / lineBytes / ways
	if sets == 0 {
		panic("perf: cache smaller than one set")
	}
	for sets&(sets-1) != 0 {
		sets &= sets - 1 // drop lowest set bit until a power of two remains
	}
	lines := sets * ways
	var shift uint
	for 1<<shift < lineBytes {
		shift++
	}
	if 1<<shift != lineBytes || shift == 0 {
		panic("perf: line size must be a power of two of at least 2 bytes")
	}
	c := &Cache{
		lineShift: shift,
		setMask:   uint64(sets - 1),
		ways:      ways,
		tags:      make([]uint64, lines),
		stamps:    make([]uint64, lines),
	}
	return c
}

// Access simulates a reference to addr and reports whether it hit.
//
// Replacement is true LRU: the victim is the first invalid way, else
// the least recently used one. Because every access takes a fresh tick,
// valid stamps are distinct and the smallest names the LRU way, while
// invalid ways (stamp 0) sort first and ties break to the lowest way.
func (c *Cache) Access(addr uint64) bool {
	c.accesses++
	c.tick++
	line := addr >> c.lineShift
	tag := line + 1
	base := int(line&c.setMask) * c.ways
	tags := c.tags[base : base+c.ways]
	stamps := c.stamps[base : base+c.ways]
	for w, t := range tags {
		if t == tag {
			stamps[w] = c.tick
			return true
		}
	}
	c.misses++
	victim := 0
	for w := 1; w < len(stamps); w++ {
		if stamps[w] < stamps[victim] {
			victim = w
		}
	}
	tags[victim] = tag
	stamps[victim] = c.tick
	return false
}

// Stats returns accesses and misses since construction.
func (c *Cache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// MissRate returns the miss ratio in [0,1], or 0 before any access.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.stamps)
	c.tick = 0
	c.accesses = 0
	c.misses = 0
}

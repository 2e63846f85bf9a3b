package perf

import (
	"math/rand"
	"testing"
)

// rankCache is the rank-array true-LRU cache that Cache replaced, kept
// as the oracle Cache must agree with hit for hit. lru[set*ways+way]
// holds recency ranks where 0 is most recent.
type rankCache struct {
	lineShift uint
	setMask   uint64
	ways      int
	tags      []uint64
	valid     []bool
	lru       []uint8
	misses    uint64
}

func newRankCache(sizeBytes, ways, lineBytes int) *rankCache {
	c := NewCache(sizeBytes, ways, lineBytes) // same geometry and validation
	return &rankCache{
		lineShift: c.lineShift,
		setMask:   c.setMask,
		ways:      ways,
		tags:      make([]uint64, len(c.tags)),
		valid:     make([]bool, len(c.tags)),
		lru:       make([]uint8, len(c.tags)),
	}
}

func (c *rankCache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			// Promote: every more recent way slides back one rank.
			old := c.lru[base+w]
			for v := 0; v < c.ways; v++ {
				if c.lru[base+v] < old {
					c.lru[base+v]++
				}
			}
			c.lru[base+w] = 0
			return true
		}
	}
	c.misses++
	// Victim: the first invalid way, else the highest rank.
	victim := 0
	var worst uint8
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
		if c.lru[base+w] >= worst {
			worst = c.lru[base+w]
			victim = w
		}
	}
	c.tags[base+victim] = line
	c.valid[base+victim] = true
	// Insert as most recent; the others age by one rank, saturating.
	maxRank := uint8(c.ways - 1)
	for w := 0; w < c.ways; w++ {
		if w != victim && c.lru[base+w] < maxRank {
			c.lru[base+w]++
		}
	}
	c.lru[base+victim] = 0
	return false
}

func (c *rankCache) Reset() {
	clear(c.tags)
	clear(c.valid)
	clear(c.lru)
	c.misses = 0
}

// oracleGeometries are the probe's two levels plus a direct-mapped
// cache, where replacement degenerates to "always the one way".
var oracleGeometries = []struct {
	name                  string
	size, ways, lineBytes int
}{
	{"l1-8way-32KiB", 32 << 10, 8, 64},
	{"llc-16way-2.5MiB", 2560 << 10, 16, 64},
	{"direct-1way-4KiB", 4 << 10, 1, 64},
}

// oracleStreams returns seeded address streams for a cache of the given
// size: uniform random over a few times the capacity, a conflict-heavy
// stream cycling ways+1 lines that map to one set (the LRU worst case)
// mixed with re-references to recent lines, and a hot/cold mix shaped
// like the probe's regions.
func oracleStreams(seed int64, size, ways, lineBytes, n int) map[string][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	sets := uint64(size / lineBytes / ways)
	random := make([]uint64, n)
	for i := range random {
		random[i] = uint64(rng.Int63n(int64(4 * size)))
	}
	conflict := make([]uint64, n)
	setStride := sets * uint64(lineBytes)
	for i := range conflict {
		switch {
		case rng.Intn(4) == 0 && i > 0:
			conflict[i] = conflict[rng.Intn(i)] // re-reference an earlier line
		default:
			set := uint64(rng.Intn(4))
			conflict[i] = (uint64(i%(ways+1))*setStride + set*uint64(lineBytes)) + uint64(rng.Intn(lineBytes))
		}
	}
	mixed := make([]uint64, n)
	for i := range mixed {
		if rng.Intn(3) == 0 {
			mixed[i] = 1<<40 + uint64(i)*uint64(lineBytes) // streaming, never reused
		} else {
			mixed[i] = uint64(rng.Intn(4))<<34 + uint64(rng.Intn(size/2))
		}
	}
	return map[string][]uint64{"random": random, "conflict": conflict, "mixed": mixed}
}

func TestCacheMatchesRankLRUOracle(t *testing.T) {
	for _, g := range oracleGeometries {
		for seed := int64(1); seed <= 3; seed++ {
			streams := oracleStreams(seed, g.size, g.ways, g.lineBytes, 60000)
			for name, stream := range streams {
				c := NewCache(g.size, g.ways, g.lineBytes)
				o := newRankCache(g.size, g.ways, g.lineBytes)
				// Two rounds: the second starts from Reset, which must
				// return both models to the same empty state.
				for round := 0; round < 2; round++ {
					for i, a := range stream {
						if got, want := c.Access(a), o.Access(a); got != want {
							t.Fatalf("%s seed %d %s round %d: access %d (addr %#x) hit=%v, oracle %v",
								g.name, seed, name, round, i, a, got, want)
						}
					}
					acc, miss := c.Stats()
					if acc != uint64(len(stream)) || miss != o.misses {
						t.Fatalf("%s seed %d %s round %d: stats %d/%d, oracle %d/%d",
							g.name, seed, name, round, acc, miss, len(stream), o.misses)
					}
					c.Reset()
					o.Reset()
				}
			}
		}
	}
}

// BenchmarkCacheAccess measures one simulated reference on the probe's
// L1 geometry over a stream that mixes hits and misses.
func BenchmarkCacheAccess(b *testing.B) {
	stream := oracleStreams(1, 32<<10, 8, 64, 1<<16)["mixed"]
	c := NewCache(32<<10, 8, 64)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		c.Access(stream[i&(len(stream)-1)])
	}
}

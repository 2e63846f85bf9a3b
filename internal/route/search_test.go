package route

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// boxedPQ is the container/heap frontier the typed pq replaced, kept as
// the oracle for its pop order.
type boxedPQ []pqItem

func (q boxedPQ) Len() int           { return len(q) }
func (q boxedPQ) Less(i, j int) bool { return q[i].est < q[j].est }
func (q boxedPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *boxedPQ) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *boxedPQ) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// Equal-est entries must leave the typed heap in container/heap's
// order, or A* would visit tied cells in a different sequence.
func TestTypedHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		var typed pq
		var boxed boxedPQ
		distinct := 1 + rng.Intn(6) // few est values: many ties
		id := int16(0)
		for op := 0; op < 2000; op++ {
			if len(typed) > 0 && rng.Intn(5) < 2 {
				got, want := typed.pop(), heap.Pop(&boxed).(pqItem)
				if got != want {
					t.Fatalf("round %d op %d: pop %+v, container/heap %+v", round, op, got, want)
				}
				continue
			}
			it := pqItem{cost: float64(id), est: float64(rng.Intn(distinct)), x: id, y: int16(round)}
			id++
			typed.push(it)
			heap.Push(&boxed, it)
			if !slices.Equal(typed, []pqItem(boxed)) {
				t.Fatalf("round %d op %d: heap layouts diverge after push", round, op)
			}
		}
		for len(typed) > 0 {
			if got, want := typed.pop(), heap.Pop(&boxed).(pqItem); got != want {
				t.Fatalf("round %d drain: pop %+v, container/heap %+v", round, got, want)
			}
		}
	}
}

// searchGrid is a fixed w x h grid with seeded congestion history, so
// searches detour and tie like real ones.
func searchGrid(w, h int) *grid {
	g := &grid{w: w, h: h, cap: 2}
	g.usage = make([]int32, g.numEdges())
	g.history = make([]float64, g.numEdges())
	rng := rand.New(rand.NewSource(3))
	for e := range g.history {
		g.history[e] = float64(rng.Intn(3))
	}
	return g
}

// A pooled scratch reused across windows of other sizes must search
// exactly as a fresh one does.
func TestSearchScratchReuseIsInvisible(t *testing.T) {
	g := searchGrid(40, 30)
	probe := connection{sx: 2, sy: 3, tx: 37, ty: 26}
	routeConnection(g, &probe, nil)
	want := slices.Clone(probe.path)
	g.unroute(&probe)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		c := connection{sx: int16(rng.Intn(8)), sy: int16(rng.Intn(8)), tx: int16(rng.Intn(8)), ty: int16(rng.Intn(8))}
		routeConnectionBounded(g, &c, nil, [4]int{0, 0, 8, 8})
		g.unroute(&c)
		if i%20 == 0 {
			routeConnection(g, &probe, nil)
			if !slices.Equal(probe.path, want) {
				t.Fatalf("after %d small searches the path changed", i)
			}
			g.unroute(&probe)
		}
	}
}

// A warmed search allocates only the path it returns.
func TestRouteConnectionAllocatesOnlyPath(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g := searchGrid(64, 64)
	c := connection{sx: 1, sy: 2, tx: 60, ty: 58}
	routeConnection(g, &c, nil)
	allocs := testing.AllocsPerRun(50, func() {
		g.unroute(&c)
		routeConnection(g, &c, nil)
	})
	if allocs != 1 {
		t.Fatalf("warmed search allocates %v times per run, want 1 (the path)", allocs)
	}
}

// BenchmarkRouteConnection measures one uninstrumented corner-to-corner
// A* search on a 64x64 grid.
func BenchmarkRouteConnection(b *testing.B) {
	g := searchGrid(64, 64)
	c := connection{sx: 1, sy: 2, tx: 60, ty: 58}
	b.ReportAllocs()
	for b.Loop() {
		g.unroute(&c)
		routeConnection(g, &c, nil)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

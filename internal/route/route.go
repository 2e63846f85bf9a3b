// Package route is the global routing engine: a grid-graph router
// using A* maze search under a negotiated-congestion cost scheme
// (PathFinder-style history costs with rip-up-and-reroute iterations).
//
// Routing is the paper's best-scaling EDA job (Fig. 2d, Fig. 3): nets
// confined to disjoint grid tiles route concurrently with no shared
// state. The engine reproduces that structure — connections are
// scheduled by tile, tile-local work runs on parallel workers (when
// uninstrumented) and the tile statistics feed the machine model's
// parallelism profile, which is what caps small-design speedup in
// Fig. 3. Its data-dependent search branches (frontier comparisons,
// design-rule/capacity checks, rip-up decisions) are also the source of
// routing's elevated branch-miss rate in Fig. 2a.
package route

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"

	"edacloud/internal/ints"
	"edacloud/internal/netlist"
	"edacloud/internal/par"
	"edacloud/internal/perf"
	"edacloud/internal/place"
)

// Options configures Route.
type Options struct {
	// GCell is the routing grid cell edge in um; 0 means one row height.
	GCell float64
	// Capacity is the routing track capacity per grid edge; 0 derives it
	// from the gcell width at a 90nm wire pitch.
	Capacity int
	// MaxIters bounds rip-up-and-reroute rounds; 0 means 8.
	MaxIters int
	// TileSize is the parallel-scheduling tile edge in gcells; 0 means 8.
	TileSize int
	// HistoryCost scales the congestion history increment; 0 means 1.5.
	HistoryCost float64
	// StageConfig supplies the shared execution knobs. Unlike the other
	// engines, Workers here sets real goroutine parallelism for
	// tile-local routing and is only honored when Probe is nil (the
	// performance simulation is single-threaded); 0 means 1. Probe
	// receives performance events; nil runs uninstrumented.
	par.StageConfig
}

func (o Options) withDefaults(rowHeight float64) Options {
	if o.GCell == 0 {
		o.GCell = 0.5 * rowHeight
	}
	if o.Capacity == 0 {
		// Marker: calibrate from wire demand once connections exist.
		o.Capacity = capacityFromDemand
	}
	if o.MaxIters == 0 {
		o.MaxIters = 8
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.HistoryCost == 0 {
		o.HistoryCost = 1.5
	}
	return o
}

// Result summarizes a routing run.
type Result struct {
	GridW, GridH int
	// Wirelength is the total routed length in grid edges.
	Wirelength int
	// Overflow is the number of edge-capacity violations remaining.
	Overflow int
	// Iterations is the number of rip-up-and-reroute rounds executed.
	Iterations int
	// Connections is the number of two-pin connections routed.
	Connections int
	// TileLocalFraction is the fraction of connections whose bounding
	// box fits inside one scheduling tile (the parallelizable part).
	TileLocalFraction float64
	// BusyTiles is the number of distinct tiles owning local work (the
	// concurrency limit for the machine model).
	BusyTiles int
	// FailedConnections counts connections with unreachable endpoints
	// (should be zero on sane grids).
	FailedConnections int
}

// connection is one two-pin route: driver gcell to sink gcell.
type connection struct {
	net    netlist.NetID
	sx, sy int16
	tx, ty int16
	tile   int32 // owning tile, -1 when the bbox crosses tiles
	path   []int32
	order  int32
}

// grid is the shared routing fabric state.
type grid struct {
	w, h    int
	cap     int
	usage   []int32   // per edge
	history []float64 // per edge
}

// Edge indexing: horizontal edge (x,y)->(x+1,y) occupies index
// y*(w-1)+x; vertical edge (x,y)->(x,y+1) occupies hBase + x*(h-1)+y.
func (g *grid) hEdge(x, y int) int32 { return int32(y*(g.w-1) + x) }
func (g *grid) vEdge(x, y int) int32 {
	return int32((g.h)*(g.w-1) + x*(g.h-1) + y)
}
func (g *grid) numEdges() int { return g.h*(g.w-1) + g.w*(g.h-1) }

// Hot-window probe regions. The router's resident set (the grid slice
// under search plus the frontier heap) is bounded, but every search
// also touches per-search visited/parent state. The model charges those
// touches as compulsory misses (probe.LoadCold) that no cache size
// absorbs, which is why routing's miss rate stays flat across VM sizes
// in the paper's Fig. 2b. The host reuses that state through
// searchScratch; the simulated misses do not depend on it.
const (
	rgGrid = 0 // edge usage/history records
	rgHeap = 1 // frontier heap nodes
)

// Branch sites.
const (
	brNeighborImprove = uint64(0x21)
	brCapacityCheck   = uint64(0x22)
	brRipupDecision   = uint64(0x23)
	brGoalCheck       = uint64(0x24)
)

// capacityFromDemand is the sentinel Options.Capacity value requesting
// demand-calibrated track capacity.
const capacityFromDemand = -1

func absInt16(v int16) int {
	if v < 0 {
		return int(-v)
	}
	return int(v)
}

// Route globally routes the placed netlist. The report carries two
// phases: the initial parallel routing pass and the rip-up-and-reroute
// negotiation rounds.
func Route(nl *netlist.Netlist, pl *place.Placement, opts Options) (*Result, *perf.Report, error) {
	if nl.NumCells() == 0 {
		return nil, nil, fmt.Errorf("route: empty netlist")
	}
	if len(pl.X) != nl.NumCells() {
		return nil, nil, fmt.Errorf("route: placement has %d cells, netlist %d", len(pl.X), nl.NumCells())
	}
	opts = opts.withDefaults(pl.RowHeight)
	probe := opts.Probe
	report := &perf.Report{Job: "routing"}

	g := &grid{
		w:   max(int(pl.DieW/opts.GCell)+2, 2),
		h:   max(int(pl.DieH/opts.GCell)+2, 2),
		cap: opts.Capacity,
	}
	g.usage = make([]int32, g.numEdges())
	g.history = make([]float64, g.numEdges())
	if opts.TileSize == 0 {
		// A fixed region size (in gcells) is what makes small designs
		// saturate in the paper's Fig. 3: a small die simply does not
		// contain many independent routing regions.
		opts.TileSize = 8
	}

	conns := buildConnections(nl, pl, g, opts)
	if opts.Capacity == capacityFromDemand {
		// Calibrate track capacity to the design's wire demand, as a
		// floorplanner sizing routing resources would: mildly above the
		// average per-edge load, so congestion concentrates in genuine
		// hotspots instead of saturating the whole fabric.
		manhattan := 0
		for i := range conns {
			manhattan += absInt16(conns[i].sx-conns[i].tx) + absInt16(conns[i].sy-conns[i].ty)
		}
		g.cap = int(1.6*float64(manhattan)/float64(g.numEdges())) + 8
	}
	res := &Result{GridW: g.w, GridH: g.h, Connections: len(conns)}

	// Tile statistics drive both the real worker scheduling and the
	// machine model's parallelism profile.
	tiles := map[int32][]*connection{}
	var crossTile []*connection
	for i := range conns {
		c := &conns[i]
		if c.tile >= 0 {
			tiles[c.tile] = append(tiles[c.tile], c)
		} else {
			crossTile = append(crossTile, c)
		}
	}
	res.BusyTiles = len(tiles)
	if len(conns) > 0 {
		res.TileLocalFraction = 1 - float64(len(crossTile))/float64(len(conns))
	}

	tileIDs := slices.Sorted(maps.Keys(tiles))

	// Initial routing pass: tile-local connections first (parallel),
	// then cross-tile connections (serialized negotiation).
	routePass(g, tileIDs, tiles, crossTile, opts)
	pf := 0.88 + 0.11*res.TileLocalFraction
	report.AddPhase(probe.TakePhase("route-initial", pf, ints.Max(res.BusyTiles, 1)))

	// Negotiated congestion: raise history on overused edges, rip up
	// offenders, reroute.
	iters := 0
	for ; iters < opts.MaxIters; iters++ {
		overused := g.overusedEdges()
		if len(overused) == 0 {
			break
		}
		bad := map[int32]bool{}
		for _, e := range overused {
			g.history[e] += opts.HistoryCost
			probe.StoreHot(rgGrid, uint64(e))
			bad[e] = true
		}
		var rip []*connection
		for i := range conns {
			c := &conns[i]
			hit := false
			for _, e := range c.path {
				probe.LoadHot(rgGrid, uint64(e))
				probe.LoopBranches(2)
				if bad[e] {
					hit = true
					break
				}
			}
			probe.Branch(brRipupDecision, hit)
			if hit {
				rip = append(rip, c)
			}
		}
		for _, c := range rip {
			g.unroute(c)
		}
		for _, c := range rip {
			routeConnection(g, c, probe)
		}
	}
	res.Iterations = iters
	// Rip-up rounds stay region-parallel but synchronize on the shared
	// congestion history between rounds; scaling is somewhat poorer
	// than the initial pass.
	report.AddPhase(probe.TakePhase("rip-up-reroute", 0.60+0.35*res.TileLocalFraction, ints.Max(res.BusyTiles/2, 1)))

	// Refinement: with congestion negotiated, reroute every connection
	// once against the final cost landscape (the wire/timing cleanup
	// pass of production routers). Tile-local work again runs fully
	// parallel.
	for i := range conns {
		g.unroute(&conns[i])
	}
	routePass(g, tileIDs, tiles, crossTile, opts)
	report.AddPhase(probe.TakePhase("refine", pf, ints.Max(res.BusyTiles, 1)))

	for i := range conns {
		if conns[i].path == nil && !(conns[i].sx == conns[i].tx && conns[i].sy == conns[i].ty) {
			res.FailedConnections++
		}
		res.Wirelength += len(conns[i].path)
	}
	res.Overflow = len(g.overusedEdges())
	return res, report, nil
}

// buildConnections decomposes every net into driver-to-sink two-pin
// connections with tile assignment.
func buildConnections(nl *netlist.Netlist, pl *place.Placement, g *grid, opts Options) []connection {
	gcellOf := func(x, y float64) (int16, int16) {
		gx := int16(x / opts.GCell)
		gy := int16(y / opts.GCell)
		if int(gx) >= g.w {
			gx = int16(g.w - 1)
		}
		if int(gy) >= g.h {
			gy = int16(g.h - 1)
		}
		return gx, gy
	}
	tileOf := func(sx, sy, tx, ty int16) int32 {
		ts := int16(opts.TileSize)
		t0x, t0y := sx/ts, sy/ts
		t1x, t1y := tx/ts, ty/ts
		if t0x != t1x || t0y != t1y {
			return -1
		}
		tilesPerRow := int32(g.w/opts.TileSize + 1)
		return int32(t0y)*tilesPerRow + int32(t0x)
	}

	type pt struct{ x, y int16 }
	var conns []connection
	for id := range nl.Nets {
		net := &nl.Nets[id]
		var root pt
		switch {
		case net.Driver != netlist.NoCell:
			root.x, root.y = gcellOf(pl.X[net.Driver], pl.Y[net.Driver])
		case net.DriverPI >= 0:
			root.x, root.y = gcellOf(pl.PIx[net.DriverPI], pl.PIy[net.DriverPI])
		default:
			continue
		}
		var sinks []pt
		for _, s := range net.Sinks {
			x, y := gcellOf(pl.X[s.Cell], pl.Y[s.Cell])
			sinks = append(sinks, pt{x, y})
		}
		for _, po := range net.POs {
			x, y := gcellOf(pl.POx[po], pl.POy[po])
			sinks = append(sinks, pt{x, y})
		}
		// Prim-style topology: attach each remaining sink to its
		// nearest already-connected terminal, approximating the Steiner
		// tree a real global router builds instead of a driver star.
		tree := []pt{root}
		for len(sinks) > 0 {
			bestS, bestT, bestD := -1, -1, 1<<30
			for si, s := range sinks {
				for ti, t := range tree {
					d := absInt16(s.x-t.x) + absInt16(s.y-t.y)
					if d < bestD {
						bestD, bestS, bestT = d, si, ti
					}
				}
			}
			s, t := sinks[bestS], tree[bestT]
			sinks = append(sinks[:bestS], sinks[bestS+1:]...)
			tree = append(tree, s)
			if s == t {
				continue // same gcell: no global routing needed
			}
			conns = append(conns, connection{
				net: netlist.NetID(id),
				sx:  t.x, sy: t.y, tx: s.x, ty: s.y,
				tile:  tileOf(t.x, t.y, s.x, s.y),
				order: int32(len(conns)),
			})
		}
	}
	return conns
}

// routePass routes every tile's local connections, in ascending tile
// order, then the cross-tile ones. Uninstrumented runs with Workers > 1
// route the tiles on the shared par worker pool (sized to
// opts.Workers). Tile-local paths can leave their tile only through A*
// detours; to keep workers disjoint we clamp the search to the tile's
// bounding box (one gcell margin), which is also what keeps their grid
// state writes race-free.
func routePass(g *grid, tileIDs []int32, tiles map[int32][]*connection, crossTile []*connection, opts Options) {
	if opts.Probe == nil && opts.Workers > 1 {
		par.Fixed(opts.Workers).For(len(tileIDs), 1, func(lo, hi int) {
			for _, id := range tileIDs[lo:hi] {
				for _, c := range tiles[id] {
					routeConnectionBounded(g, c, nil, tileBounds(g, id, opts.TileSize))
				}
			}
		})
	} else {
		for _, id := range tileIDs {
			for _, c := range tiles[id] {
				routeConnection(g, c, opts.Probe)
			}
		}
	}
	for _, c := range crossTile {
		routeConnection(g, c, opts.Probe)
	}
}

// tileBounds returns the search window of a tile id. Windows of
// distinct tiles touch disjoint edge sets (the window-boundary edge is
// never used by the bounded search), which is what makes concurrent
// tile routing race-free.
func tileBounds(g *grid, id int32, tileSize int) [4]int {
	tilesPerRow := int32(g.w/tileSize + 1)
	tx := int(id % tilesPerRow)
	ty := int(id / tilesPerRow)
	x1, y1 := min((tx+1)*tileSize, g.w), min((ty+1)*tileSize, g.h)
	return [4]int{tx * tileSize, ty * tileSize, x1, y1}
}

// routeConnection routes within the whole grid.
func routeConnection(g *grid, c *connection, probe *perf.Probe) {
	routeConnectionBounded(g, c, probe, [4]int{0, 0, g.w, g.h})
}

// pqItem is an A* frontier entry.
type pqItem struct {
	cost, est float64
	x, y      int16
}

// pq is a binary min-heap on est. push and pop move entries exactly as
// container/heap's up and down do, so entries with equal est leave in
// the same order and the search visits cells in the same sequence.
type pq []pqItem

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h, j := *q, len(*q)-1
	for ; j > 0 && it.est < h[(j-1)/2].est; j = (j - 1) / 2 {
		h[j] = h[(j-1)/2]
	}
	h[j] = it
}

func (q *pq) pop() pqItem {
	h := *q
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	*q = h
	i := 0
	for j := 1; j < len(h); j = 2*i + 1 {
		if j+1 < len(h) && h[j+1].est < h[j].est {
			j++
		}
		if !(h[j].est < last.est) {
			break
		}
		h[i] = h[j]
		i = j
	}
	if len(h) > 0 {
		h[i] = last
	}
	return top
}

// searchCell is one grid cell's search state: its best cost, parent
// cell and the edge from that parent. It is current only when epoch
// matches the scratch's; any other cell reads as unvisited.
type searchCell struct {
	epoch      uint32
	from, edge int32
	dist       float64
}

// searchScratch is the visited/parent state and frontier of a search,
// reused by the next one: starting a search bumps the epoch instead of
// resetting w*h cells. scratchPool gives every search, and so every
// parallel tile worker, a scratch of its own.
type searchScratch struct {
	cells    []searchCell
	epoch    uint32
	frontier pq
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

func (s *searchScratch) begin(n int) {
	if len(s.cells) < n {
		s.cells = make([]searchCell, n)
	}
	if s.epoch++; s.epoch == 0 { // wrapped: forget every stale stamp
		clear(s.cells)
		s.epoch = 1
	}
	s.frontier = s.frontier[:0]
}

func (s *searchScratch) dist(i int32) float64 {
	if c := s.cells[i]; c.epoch == s.epoch {
		return c.dist
	}
	return math.Inf(1)
}

// routeConnectionBounded is the A* maze router under the negotiated
// congestion cost function, restricted to a window.
func routeConnectionBounded(g *grid, c *connection, probe *perf.Probe, win [4]int) {
	x0, y0, x1, y1 := win[0], win[1], win[2], win[3]
	w := x1 - x0
	h := y1 - y0
	if w <= 0 || h <= 0 {
		return
	}
	inWin := func(x, y int16) bool {
		return int(x) >= x0 && int(x) < x1 && int(y) >= y0 && int(y) < y1
	}
	if !inWin(c.sx, c.sy) || !inWin(c.tx, c.ty) {
		// Endpoints outside the window (tile clamp too small): fall
		// back to the full grid.
		if x0 != 0 || y0 != 0 || x1 != g.w || y1 != g.h {
			routeConnectionBounded(g, c, probe, [4]int{0, 0, g.w, g.h})
		}
		return
	}

	idx := func(x, y int16) int32 { return int32((int(y)-y0)*w + (int(x) - x0)) }
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	sc.begin(w * h)

	edgeCost := func(e int32) float64 {
		probe.LoadHot(rgGrid, uint64(e))
		u := g.usage[e]
		over := u >= int32(g.cap)
		probe.Branch(brCapacityCheck, over)
		cost := 1.0 + g.history[e]
		if over {
			cost += 4 * float64(u-int32(g.cap)+1)
		}
		return cost
	}
	heuristic := func(x, y int16) float64 {
		dx := float64(x - c.tx)
		dy := float64(y - c.ty)
		return math.Abs(dx) + math.Abs(dy)
	}

	frontier := &sc.frontier
	// relax offers neighbor (x, y) of it, reached over edge e.
	relax := func(it pqItem, x, y int16, e int32) {
		cand := it.cost + edgeCost(e)
		di := idx(x, y)
		better := cand < sc.dist(di)
		probe.Branch(brNeighborImprove, better)
		if better {
			sc.cells[di] = searchCell{sc.epoch, idx(it.x, it.y), e, cand}
			frontier.push(pqItem{cost: cand, est: cand + heuristic(x, y), x: x, y: y})
			probe.StoreHot(rgHeap, uint64(len(*frontier)))
		}
	}
	frontier.push(pqItem{cost: 0, est: heuristic(c.sx, c.sy), x: c.sx, y: c.sy})
	sc.cells[idx(c.sx, c.sy)] = searchCell{sc.epoch, -1, -1, 0}
	found := false
	for len(*frontier) > 0 {
		it := frontier.pop()
		probe.LoadHot(rgHeap, uint64(len(*frontier)))
		// The visited/parent entries this visit touches: compulsory
		// misses in the model.
		probe.LoadCold(2)
		// Per-node bookkeeping of a production 3D router: layer
		// assignment, via costing and design-rule legality per visit.
		probe.Ops(140)
		probe.LoopBranches(9)
		goal := it.x == c.tx && it.y == c.ty
		probe.Branch(brGoalCheck, goal)
		if goal {
			found = true
			break
		}
		if it.cost > sc.dist(idx(it.x, it.y)) {
			continue // stale entry
		}
		if int(it.x) > x0 {
			relax(it, it.x-1, it.y, g.hEdge(int(it.x)-1, int(it.y)))
		}
		if int(it.x) < x1-1 {
			relax(it, it.x+1, it.y, g.hEdge(int(it.x), int(it.y)))
		}
		if int(it.y) > y0 {
			relax(it, it.x, it.y-1, g.vEdge(int(it.x), int(it.y)-1))
		}
		if int(it.y) < y1-1 {
			relax(it, it.x, it.y+1, g.vEdge(int(it.x), int(it.y)))
		}
	}
	if !found {
		c.path = nil
		return
	}
	// Trace back the path, collecting edges and bumping usage. Every
	// cell on it was visited, so its parent entry is current. The first
	// walk only sizes the path, the search's one allocation.
	n := 0
	for cur := idx(c.tx, c.ty); sc.cells[cur].from >= 0; cur = sc.cells[cur].from {
		n++
	}
	c.path = make([]int32, 0, n)
	for cur := idx(c.tx, c.ty); sc.cells[cur].from >= 0; cur = sc.cells[cur].from {
		e := sc.cells[cur].edge
		c.path = append(c.path, e)
		g.usage[e]++
		probe.StoreHot(rgGrid, uint64(e))
	}
}

// unroute removes a connection's path from the grid usage.
func (g *grid) unroute(c *connection) {
	for _, e := range c.path {
		g.usage[e]--
	}
	c.path = nil
}

// overusedEdges lists edges above capacity.
func (g *grid) overusedEdges() []int32 {
	var out []int32
	for e, u := range g.usage {
		if u > int32(g.cap) {
			out = append(out, int32(e))
		}
	}
	return out
}

package flow

import (
	"math"

	"edacloud/internal/aig"
	"edacloud/internal/netlist"
	"edacloud/internal/place"
	"edacloud/internal/route"
	"edacloud/internal/sta"
	"edacloud/internal/techlib"
)

// This file gives a flow run stable artifact identities: every artifact
// slot of the RunContext has a canonical content hash, computed once
// per artifact and memoized on the slot's pointer (stages replace
// their predecessors' outputs rather than mutating them, so a changed
// pointer is exactly an invalidated hash). The hashes are what the
// content-addressed artifact cache anchors its key chains on and
// verifies adopted entries against, and what tests pin as goldens.

// idMemo memoizes one artifact pointer's content hash.
type idMemo[T any] struct {
	ptr *T
	fp  uint64
}

func (m *idMemo[T]) of(p *T, hash func(*T) uint64) uint64 {
	if p == nil {
		return 0
	}
	if m.ptr != p {
		m.ptr, m.fp = p, hash(p)
	}
	return m.fp
}

// artifactIDs holds the RunContext's memoized hashes.
type artifactIDs struct {
	design    idMemo[aig.Graph]
	lib       idMemo[techlib.Library]
	optimized idMemo[aig.Graph]
	netlist   idMemo[netlist.Netlist]
	placement idMemo[place.Placement]
	routing   idMemo[route.Result]
	timing    idMemo[sta.Result]
}

// DesignHash is the canonical content hash of the input AIG; 0 when
// absent. Like all the artifact hashes it is computed once and
// memoized until the slot's pointer changes.
func (rc *RunContext) DesignHash() uint64 {
	return rc.ids.design.of(rc.Design, (*aig.Graph).Fingerprint)
}

// LibHash is the canonical content hash of the technology library:
// its name plus every cell's name, function, area and pin count — the
// properties that shape mapping, placement and timing results.
func (rc *RunContext) LibHash() uint64 {
	return rc.ids.lib.of(rc.Lib, libFingerprint)
}

// OptimizedHash is the content hash of the post-recipe AIG; 0 when
// synthesis has not run.
func (rc *RunContext) OptimizedHash() uint64 {
	return rc.ids.optimized.of(rc.Optimized, (*aig.Graph).Fingerprint)
}

// NetlistHash is the content hash of the mapped netlist; 0 before
// synthesis.
func (rc *RunContext) NetlistHash() uint64 {
	return rc.ids.netlist.of(rc.Netlist, (*netlist.Netlist).Fingerprint)
}

// PlacementHash is the content hash of the placement; 0 before
// placement (the "no placement" marker zero-wire-load STA keys on).
func (rc *RunContext) PlacementHash() uint64 {
	return rc.ids.placement.of(rc.Placement, func(p *place.Placement) uint64 {
		h := newHasher()
		hashPlacement(&h, p)
		return uint64(h)
	})
}

// RoutingHash is the content hash of the routing result; 0 before
// routing.
func (rc *RunContext) RoutingHash() uint64 {
	return rc.ids.routing.of(rc.Routing, func(r *route.Result) uint64 {
		h := newHasher()
		hashRouting(&h, r)
		return uint64(h)
	})
}

// TimingHash is the content hash of the STA result; 0 before sta.
func (rc *RunContext) TimingHash() uint64 {
	return rc.ids.timing.of(rc.Timing, func(r *sta.Result) uint64 {
		h := newHasher()
		hashTiming(&h, r)
		return uint64(h)
	})
}

func libFingerprint(lib *techlib.Library) uint64 {
	h := newHasher()
	h.str(lib.Name)
	h.i(len(lib.Cells))
	for _, c := range lib.Cells {
		h.str(c.Name)
		h.f64(c.Area)
		h.word(uint64(c.TT))
		h.i(len(c.Inputs))
		if c.Seq {
			h.i(1)
		} else {
			h.i(0)
		}
	}
	return uint64(h)
}

// inputAnchor is the content hash of the direct inputs stage kind k
// reads from the context — the root a key chain anchors on and the
// value adoption verifies a cached entry's InputHash against. ok is
// false while the prerequisites are missing (at planning time, or
// before the predecessor stages ran).
func (rc *RunContext) inputAnchor(k JobKind) (uint64, bool) {
	switch k {
	case JobSynthesis:
		if rc.Design == nil || rc.Lib == nil {
			return 0, false
		}
		h := newHasher()
		h.word(rc.DesignHash())
		h.word(rc.LibHash())
		return uint64(h), true
	case JobPlacement:
		if rc.Netlist == nil {
			return 0, false
		}
		return rc.NetlistHash(), true
	case JobRouting:
		if rc.Netlist == nil || rc.Placement == nil {
			return 0, false
		}
		h := newHasher()
		h.word(rc.NetlistHash())
		h.word(rc.PlacementHash())
		return uint64(h), true
	case JobSTA:
		// STA accepts a missing placement (zero-wire-load timing);
		// PlacementHash's 0 is the "no placement" marker.
		if rc.Netlist == nil {
			return 0, false
		}
		h := newHasher()
		h.word(rc.NetlistHash())
		h.word(rc.PlacementHash())
		return uint64(h), true
	}
	return 0, false
}

// outputHash is the content hash of the artifacts stage kind k
// produced — the stored entry's identity downstream runs verify.
func (rc *RunContext) outputHash(k JobKind) uint64 {
	switch k {
	case JobSynthesis:
		h := newHasher()
		h.word(rc.OptimizedHash())
		h.word(rc.NetlistHash())
		return uint64(h)
	case JobPlacement:
		return rc.PlacementHash()
	case JobRouting:
		return rc.RoutingHash()
	case JobSTA:
		return rc.TimingHash()
	}
	return 0
}

// Fingerprinted is the optional Stage extension the artifact cache
// keys on: a canonical hash of the stage's result-shaping options plus
// an engine revision tag. Execution knobs that cannot change the
// artifacts (worker bounds, probes) must be excluded — that is what
// makes one cache entry valid across instance sizes. A stage that does
// not implement it is uncacheable and breaks the key chain: it and
// every later stage run uncached until a cacheable stage re-anchors on
// the live artifact hashes at execution time (which a planning-time
// prediction cannot do, so predicted chains stop at the break).
type Fingerprinted interface {
	OptionsFingerprint() uint64
	// EngineVersion names the engine implementation revision; bump it
	// whenever the engine's output for identical inputs changes, so
	// stale artifacts from the old engine can never be adopted.
	EngineVersion() string
}

func (s synthesisStage) OptionsFingerprint() uint64 {
	h := newHasher()
	h.str(s.opts.Recipe.Name)
	h.i(len(s.opts.Recipe.Passes))
	for _, p := range s.opts.Recipe.Passes {
		h.i(int(p))
	}
	if s.opts.RegisterOutputs {
		h.i(1)
	} else {
		h.i(0)
	}
	h.i(int(s.opts.Objective))
	return uint64(h)
}

func (s synthesisStage) EngineVersion() string { return "synth/1" }

func (s placementStage) OptionsFingerprint() uint64 {
	h := newHasher()
	h.f64(s.opts.TargetUtil)
	h.f64(s.opts.RowHeight)
	h.i(s.opts.SpreadIters)
	h.i(s.opts.CGIters)
	h.i(s.opts.Bins)
	return uint64(h)
}

func (s placementStage) EngineVersion() string { return "place/1" }

func (s routingStage) OptionsFingerprint() uint64 {
	h := newHasher()
	h.f64(s.opts.GCell)
	h.i(s.opts.Capacity)
	h.i(s.opts.MaxIters)
	h.i(s.opts.TileSize)
	h.f64(s.opts.HistoryCost)
	return uint64(h)
}

func (s routingStage) EngineVersion() string { return "route/1" }

func (s staStage) OptionsFingerprint() uint64 {
	h := newHasher()
	h.f64(s.opts.ClockPeriodNs)
	h.f64(s.opts.InputSlewNs)
	h.f64(s.opts.WireCapPerUm)
	h.f64(s.opts.HoldTimeNs)
	return uint64(h)
}

func (s staStage) EngineVersion() string { return "sta/1" }

// hasher is FNV-1a 64, fed fixed-width words so the hash covers
// structure, not formatting.
type hasher uint64

func newHasher() hasher { return 14695981039346656037 }

func (h *hasher) word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= (v >> (8 * i)) & 0xff
		x *= 1099511628211
	}
	*h = hasher(x)
}

func (h *hasher) str(s string) {
	h.word(uint64(len(s)))
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= 1099511628211
	}
	*h = hasher(x)
}

func (h *hasher) f64(v float64) { h.word(math.Float64bits(v)) }
func (h *hasher) i(v int)       { h.word(uint64(int64(v))) }

func hashPlacement(h *hasher, p *place.Placement) {
	if p == nil {
		h.word(0)
		return
	}
	h.word(1)
	for _, v := range p.X {
		h.f64(v)
	}
	for _, v := range p.Y {
		h.f64(v)
	}
	h.f64(p.DieW)
	h.f64(p.DieH)
	h.f64(p.HPWL)
	h.f64(p.Overflow)
}

func hashRouting(h *hasher, r *route.Result) {
	if r == nil {
		h.word(0)
		return
	}
	h.word(1)
	h.i(r.GridW)
	h.i(r.GridH)
	h.i(r.Wirelength)
	h.i(r.Overflow)
	h.i(r.Iterations)
	h.i(r.Connections)
	h.f64(r.TileLocalFraction)
	h.i(r.BusyTiles)
	h.i(r.FailedConnections)
}

func hashTiming(h *hasher, r *sta.Result) {
	if r == nil {
		h.word(0)
		return
	}
	h.word(1)
	h.f64(r.WNS)
	h.f64(r.TNS)
	h.f64(r.MaxArrival)
	h.f64(r.WHS)
	h.i(r.HoldViolations)
	h.i(r.Endpoints)
	for _, s := range r.CriticalPath {
		h.i(int(s.Cell))
		h.f64(s.Arrival)
	}
	for _, w := range r.LevelWidths {
		h.i(w)
	}
}

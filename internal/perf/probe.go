package perf

// ProbeConfig sets the simulated memory hierarchy and predictor
// geometry for one profiled run. LLC capacity is the knob that varies
// with the VM configuration: cloud vCPUs carry a per-core slice of the
// last-level cache, which is how the paper explains placement's miss
// rate dropping from 45% at 1 vCPU to 34% at 8 vCPUs.
type ProbeConfig struct {
	L1Bytes       int
	L1Ways        int
	LLCBytes      int
	LLCWays       int
	LineBytes     int
	PredictorBits uint
}

// DefaultProbeConfig mirrors one Xeon-class core: 32 KiB 8-way L1,
// 2.5 MiB 16-way LLC slice, 64-byte lines, 12-bit gshare.
func DefaultProbeConfig() ProbeConfig {
	return ProbeConfig{
		L1Bytes:       32 << 10,
		L1Ways:        8,
		LLCBytes:      2560 << 10,
		LLCWays:       16,
		LineBytes:     64,
		PredictorBits: 12,
	}
}

// WithLLCSlices returns the config with the LLC scaled to n per-core
// slices, modelling the larger aggregate cache of a bigger VM.
func (pc ProbeConfig) WithLLCSlices(n int) ProbeConfig {
	if n < 1 {
		n = 1
	}
	pc.LLCBytes = pc.LLCBytes * n
	return pc
}

// Probe is the instrumentation sink the EDA engines report events to.
// A nil *Probe is valid and makes every method a no-op, so engines can
// run uninstrumented at full speed.
//
// Beyond raw addressed accesses (Load/Store/LoadRange), the probe
// offers two access idioms that model the architectural distinction
// the paper's Fig. 2b rests on:
//
//   - LoadHot/StoreHot reference a bounded per-region working window
//     (HotBytes), the pattern of synthesis's active-cone traffic and
//     STA's levelized sweeps — these are capacity-friendly and mostly
//     hit once warm;
//   - LoadCold references never-seen addresses (compulsory misses),
//     the pattern of the router's per-search visited/parent state —
//     these miss every cache no matter its size, which is why routing's
//     miss rate does not improve with bigger VMs in the paper.
type Probe struct {
	l1  *Cache
	llc *Cache
	bp  *BranchPredictor

	// HotBytes bounds each hot region's footprint. Zero means 32 KiB.
	HotBytes uint64

	cfg      ProbeConfig
	coldNext uint64
	c        Counters
	mark     Counters // snapshot at the last phase boundary

	// shards are the per-worker child probes handed out to parallel
	// regions (see Shards). Each keeps its own cache and predictor
	// state, persisting across regions so per-worker working windows
	// stay warm the way real per-core caches do.
	shards  []*Probe
	drained Counters // portion of c already absorbed by a parent
}

// NewProbe builds a probe with the given geometry.
func NewProbe(cfg ProbeConfig) *Probe {
	return &Probe{
		l1:       NewCache(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes),
		llc:      NewCache(cfg.LLCBytes, cfg.LLCWays, cfg.LineBytes),
		bp:       NewBranchPredictor(cfg.PredictorBits),
		cfg:      cfg,
		coldNext: 1 << 40, // cold stream lives far from every region
	}
}

// Shards returns n per-worker child probes with the parent's geometry.
// Shards are created once and reused across parallel regions, so their
// cache and predictor state accumulates like a real worker's core
// state. The parent must not record events while its shards are in
// use; after the region, call MergeShards to fold the shard deltas
// back in. A nil probe returns nil shards (all nil-safe).
func (p *Probe) Shards(n int) []*Probe {
	if p == nil {
		return make([]*Probe, n)
	}
	for len(p.shards) < n {
		s := NewProbe(p.cfg)
		s.HotBytes = p.HotBytes
		p.shards = append(p.shards, s)
	}
	return p.shards[:n]
}

// MergeShards absorbs the events each shard recorded since its last
// merge into p's counters, in shard order — a deterministic reduction
// independent of which OS thread ran which shard.
func (p *Probe) MergeShards(shards []*Probe) {
	if p == nil {
		return
	}
	for _, s := range shards {
		if s == nil {
			continue
		}
		delta := sub(s.c, s.drained)
		p.c.Add(&delta)
		s.drained = s.c
	}
}

func (p *Probe) hotAddr(region int, idx uint64) uint64 {
	hot := p.HotBytes
	if hot == 0 {
		hot = 32 << 10
	}
	const regionStride = uint64(1) << 34
	return uint64(region+1)*regionStride + (idx*16)%hot
}

// LoadHot records a load within the bounded hot window of a region.
func (p *Probe) LoadHot(region int, idx uint64) {
	if p == nil {
		return
	}
	p.Load(p.hotAddr(region, idx))
}

// StoreHot records a store within the bounded hot window of a region.
func (p *Probe) StoreHot(region int, idx uint64) {
	if p == nil {
		return
	}
	p.Store(p.hotAddr(region, idx))
}

// LoadCold records n loads of never-before-seen lines: compulsory
// misses in both cache levels. The cache contents are not disturbed
// (streaming loads bypass with non-temporal semantics).
func (p *Probe) LoadCold(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
	p.c.Loads += uint64(n)
	p.c.L1Misses += uint64(n)
	p.c.LLCMisses += uint64(n)
	p.coldNext += uint64(n) * 64
}

// LoopBranches records n perfectly predicted branches — the loop
// back-edges that dominate branch counts in numeric kernels. They
// update the counters but skip the predictor simulation.
func (p *Probe) LoopBranches(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
	p.c.Branches += uint64(n)
}

// access runs one reference through L1 then LLC and counts where it
// was served. It is the single miss path of Load, Store and LoadRange;
// it reports whether the reference missed the LLC.
func (p *Probe) access(addr uint64) (llcMiss bool) {
	if p.l1.Access(addr) {
		p.c.L1Hits++
		return false
	}
	p.c.L1Misses++
	if p.llc.Access(addr) {
		p.c.LLCHits++
		return false
	}
	p.c.LLCMisses++
	return true
}

// Load records a data load from the synthetic address addr.
func (p *Probe) Load(addr uint64) {
	if p == nil {
		return
	}
	p.c.Instrs++
	p.c.Loads++
	p.access(addr)
}

// Store records a data store to the synthetic address addr.
func (p *Probe) Store(addr uint64) {
	if p == nil {
		return
	}
	p.c.Instrs++
	p.c.Stores++
	p.access(addr)
}

// LoadRange records a sequential sweep of n elements of elemSize bytes
// starting at addr, the access pattern of vector arithmetic. It is
// equivalent to n Load calls but simulates the cache once per touched
// line: consecutive elements on an already-referenced line are L1 hits
// by construction.
func (p *Probe) LoadRange(addr uint64, n, elemSize int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
	p.c.Loads += uint64(n)
	lastLine := ^uint64(0)
	for i := 0; i < n; i++ {
		a := addr + uint64(i*elemSize)
		ln := a >> 6
		if ln == lastLine {
			p.c.L1Hits++
			continue
		}
		lastLine = ln
		if p.access(a) {
			p.c.LLCPrefetched++
		}
	}
}

// Branch records a conditional branch at the given site with the actual
// outcome.
func (p *Probe) Branch(site uint64, taken bool) {
	if p == nil {
		return
	}
	p.c.Instrs++
	p.c.Branches++
	if !p.bp.Record(site, taken) {
		p.c.BranchMisses++
	}
}

// FPScalar records n scalar floating-point operations.
func (p *Probe) FPScalar(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
	p.c.FPScalar += uint64(n)
}

// FPVector records n vectorizable (AVX-eligible) floating-point
// operations.
func (p *Probe) FPVector(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
	p.c.FPVector += uint64(n)
}

// Ops records n generic integer/ALU instructions.
func (p *Probe) Ops(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.c.Instrs += uint64(n)
}

// Counters returns the accumulated counts since construction.
func (p *Probe) Counters() Counters {
	if p == nil {
		return Counters{}
	}
	return p.c
}

// TakePhase returns a Phase holding the events recorded since the last
// TakePhase (or since construction) and advances the phase boundary.
func (p *Probe) TakePhase(name string, parallelFraction float64, chunks int) Phase {
	if p == nil {
		return Phase{Name: name, ParallelFraction: parallelFraction, Chunks: chunks}
	}
	delta := sub(p.c, p.mark)
	p.mark = p.c
	if chunks < 1 {
		chunks = 1
	}
	if parallelFraction < 0 {
		parallelFraction = 0
	}
	if parallelFraction > 1 {
		parallelFraction = 1
	}
	return Phase{Name: name, C: delta, ParallelFraction: parallelFraction, Chunks: chunks}
}

// TakePhaseMeasured is TakePhase with the parallel fraction *measured*
// instead of modeled: parallelInstrs is the number of instructions the
// caller recorded inside parallel regions (typically the delta of
// Counters().Instrs across a par.ForProbe region, whose shard counters
// are merged back before the region returns), and the fraction is its
// share of everything retired since the last phase boundary. Callers
// with genuinely parallel kernels use this so the machine model's
// Amdahl scaling rests on the code's real serial/parallel split —
// partition rebuilds and cut sweeps scale, merges and sweeps do not —
// rather than on a hand-tuned constant. parallelInstrs is clamped to
// the recorded delta, so a nil probe yields a zero-counter phase with
// fraction 0.
func (p *Probe) TakePhaseMeasured(name string, parallelInstrs uint64, chunks int) Phase {
	if p == nil {
		return p.TakePhase(name, 0, chunks)
	}
	total := p.c.Instrs - p.mark.Instrs
	if parallelInstrs > total {
		parallelInstrs = total
	}
	frac := 0.0
	if total > 0 {
		frac = float64(parallelInstrs) / float64(total)
	}
	return p.TakePhase(name, frac, chunks)
}

func sub(a, b Counters) Counters {
	return Counters{
		Instrs:        a.Instrs - b.Instrs,
		Branches:      a.Branches - b.Branches,
		BranchMisses:  a.BranchMisses - b.BranchMisses,
		Loads:         a.Loads - b.Loads,
		Stores:        a.Stores - b.Stores,
		L1Hits:        a.L1Hits - b.L1Hits,
		L1Misses:      a.L1Misses - b.L1Misses,
		LLCHits:       a.LLCHits - b.LLCHits,
		LLCMisses:     a.LLCMisses - b.LLCMisses,
		LLCPrefetched: a.LLCPrefetched - b.LLCPrefetched,
		FPScalar:      a.FPScalar - b.FPScalar,
		FPVector:      a.FPVector - b.FPVector,
	}
}

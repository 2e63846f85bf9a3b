package cloud

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file models the bounded side of the paper's deployment problem:
// a batch of flows does not rent an unlimited number of VMs — it
// contends for a finite fleet. A Fleet is that pool: a fixed set of
// rentable instances, each with a busy timeline of leases and a
// utilization/cost ledger. The flow scheduler's event loop acquires
// and books instances against simulated time; everything here is plain
// deterministic arithmetic, so a schedule built on a Fleet is
// bit-identical for any real worker count.

// Lease is one booked interval on a fleet instance: one stage (or one
// whole single-instance flow) of one job.
type Lease struct {
	Job   string
	Stage string
	// StartSec/EndSec bound the interval in simulated seconds.
	StartSec, EndSec float64
	// CostUSD is the bill for the interval under the instance type's
	// per-second pricing and minimum billing granularity.
	CostUSD float64
	// Revoked marks a lease truncated by a spot revocation: the
	// instance was reclaimed at RevokedAt (== EndSec), the work past it
	// was lost, and the ledger bills only up to that point.
	Revoked   bool
	RevokedAt float64
}

// FleetInstance is one rentable machine of a fleet.
type FleetInstance struct {
	// ID labels the instance uniquely within its fleet, e.g. "mem.8x#1".
	ID   string
	Type InstanceType
	// FreeAtSec is the simulated time the instance next becomes
	// available (the end of its last lease).
	FreeAtSec float64
	// BusySec totals leased time; CostUSD totals the bills.
	BusySec float64
	CostUSD float64
	// Leases is the live timeline: every lease not yet moved out by
	// Settle, in start order.
	Leases []Lease
	// settledCost, settledBusy and settledFree are the left folds of
	// the settled prefix — the running sum of its bills, the running sum
	// of its busy spans and its latest end — so every ledger re-folded
	// over the live leases continues from exactly where an unsettled
	// timeline's fold would stand.
	settledCost, settledBusy, settledFree float64
}

// Fleet is a bounded pool of rentable instances.
type Fleet struct {
	Instances []*FleetInstance
	// Revocation, when non-nil, injects seeded spot revocations into
	// Book and Extend: a lease overlapping a revocation event of its
	// (revocable) instance is truncated there and billed only up to
	// the event. nil — or a zero-hazard model — never truncates.
	Revocation *RevocationModel
}

// FleetEntry sizes one slice of a fleet: Count instances of one type.
type FleetEntry struct {
	Type  InstanceType
	Count int
}

// NewFleet builds a fleet from typed entries. Instances are numbered
// per type in entry order, so the pool layout — and therefore every
// tie-break in Acquire — is deterministic.
func NewFleet(entries ...FleetEntry) *Fleet {
	f := &Fleet{}
	seen := map[string]int{}
	for _, e := range entries {
		for i := 0; i < e.Count; i++ {
			n := seen[e.Type.Name]
			seen[e.Type.Name]++
			f.Instances = append(f.Instances, &FleetInstance{
				ID:   fmt.Sprintf("%s#%d", e.Type.Name, n),
				Type: e.Type,
			})
		}
	}
	return f
}

// ParseFleetSpec builds a fleet from a "name=count,name=count" spec
// against a catalog, e.g. "gp.4x=2,mem.8x=1". A bare name means one
// instance.
func ParseFleetSpec(catalog *Catalog, spec string) (*Fleet, error) {
	var entries []FleetEntry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, countStr, hasCount := strings.Cut(part, "=")
		count := 1
		if hasCount {
			v, err := strconv.Atoi(strings.TrimSpace(countStr))
			if err != nil || v < 1 {
				return nil, fmt.Errorf("cloud: bad fleet count in %q", part)
			}
			count = v
		}
		it, err := catalog.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		entries = append(entries, FleetEntry{Type: it, Count: count})
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("cloud: empty fleet spec %q", spec)
	}
	return NewFleet(entries...), nil
}

// Acquire returns the index of the instance of the named type (any
// type when typeName is empty) that can start work earliest at or
// after readySec, and that start time. Ties break toward the lowest
// instance index, so grants are a pure function of the fleet state.
func (f *Fleet) Acquire(typeName string, readySec float64) (int, float64, error) {
	best, bestStart := -1, 0.0
	for i, inst := range f.Instances {
		if typeName != "" && inst.Type.Name != typeName {
			continue
		}
		start := inst.FreeAtSec
		if start < readySec {
			start = readySec
		}
		if best < 0 || start < bestStart {
			best, bestStart = i, start
		}
	}
	if best < 0 {
		if typeName == "" {
			return 0, 0, fmt.Errorf("cloud: fleet has no instances")
		}
		return 0, 0, fmt.Errorf("cloud: fleet has no %q instances", typeName)
	}
	return best, bestStart, nil
}

// Book leases instance idx for [startSec, startSec+durSec), billing it
// under the instance type's pricing, and returns the lease index. The
// start must not precede the instance's free time. Under a revocation
// model, a revocation event inside the interval truncates the lease
// there: the instance is reclaimed, the bill covers only the time up
// to the event, and the replacement capacity is free again at the
// event time (the provider refills the pool). Callers detect the cut
// via the returned lease's Revoked flag.
func (f *Fleet) Book(idx int, job, stage string, startSec, durSec float64) int {
	inst := f.Instances[idx]
	end := startSec + durSec
	l := Lease{
		Job: job, Stage: stage,
		StartSec: startSec,
		EndSec:   end,
	}
	if rev, ok := f.nextRevocation(inst, startSec); ok && rev < end {
		l.EndSec = rev
		l.Revoked = true
		l.RevokedAt = rev
	}
	l.CostUSD = inst.Type.Cost(l.EndSec - l.StartSec)
	inst.Leases = append(inst.Leases, l)
	inst.FreeAtSec = l.EndSec
	inst.BusySec += l.EndSec - l.StartSec
	inst.CostUSD = instanceCost(inst)
	return len(inst.Leases) - 1
}

// nextRevocation asks the fleet's model (if any) for the instance's
// first revocation strictly after afterSec.
func (f *Fleet) nextRevocation(inst *FleetInstance, afterSec float64) (float64, bool) {
	if f.Revocation == nil {
		return 0, false
	}
	return f.Revocation.NextRevocation(inst, afterSec)
}

// Extend stretches instance idx's latest live lease by durSec — a job
// holding its machine across consecutive stages instead of releasing
// it — appending the stage to the lease label and re-billing the whole
// interval. It returns the marginal cost of the extension. Under a
// revocation model the extension can be truncated just like a fresh
// booking: the earlier part of the lease already survived (Book and
// prior Extends checked their own intervals), so only an event inside
// the new segment cuts it, marking the whole lease Revoked.
func (f *Fleet) Extend(idx int, stage string, durSec float64) float64 {
	inst := f.Instances[idx]
	l := &inst.Leases[len(inst.Leases)-1]
	before := l.CostUSD
	prevEnd := l.EndSec
	l.EndSec += durSec
	l.Stage += "+" + stage
	if rev, ok := f.nextRevocation(inst, prevEnd); ok && rev < l.EndSec {
		l.EndSec = rev
		l.Revoked = true
		l.RevokedAt = rev
	}
	l.CostUSD = inst.Type.Cost(l.EndSec - l.StartSec)
	inst.FreeAtSec = l.EndSec
	inst.BusySec += l.EndSec - prevEnd
	inst.CostUSD = instanceCost(inst)
	return l.CostUSD - before
}

// instanceCost re-sums an instance's lease bills so the ledger equals
// the exact sum of final lease costs regardless of extension order.
// The sum starts from the settled prefix's fold, so it is bit-identical
// to a sum over the whole timeline.
func instanceCost(inst *FleetInstance) float64 {
	c := inst.settledCost
	for _, l := range inst.Leases {
		c += l.CostUSD
	}
	return c
}

// Lease returns one live lease of one instance; lease indexes count
// from the first lease Settle has not moved out.
func (f *Fleet) Lease(idx, lease int) Lease { return f.Instances[idx].Leases[lease] }

// TotalCostUSD sums the fleet bill over all instances.
func (f *Fleet) TotalCostUSD() float64 {
	var c float64
	for _, inst := range f.Instances {
		c += inst.CostUSD
	}
	return c
}

// HorizonSec returns the end of the latest lease in the fleet — the
// schedule's makespan as the fleet saw it.
func (f *Fleet) HorizonSec() float64 {
	var h float64
	for _, inst := range f.Instances {
		if inst.FreeAtSec > h {
			h = inst.FreeAtSec
		}
	}
	return h
}

// Utilization returns busy time over capacity across the fleet for the
// given horizon (0 means HorizonSec): 1.0 is a fleet with no idle
// gaps. An unused fleet reports 0.
func (f *Fleet) Utilization(horizonSec float64) float64 {
	if horizonSec <= 0 {
		horizonSec = f.HorizonSec()
	}
	if horizonSec <= 0 || len(f.Instances) == 0 {
		return 0
	}
	var busy float64
	for _, inst := range f.Instances {
		busy += inst.BusySec
	}
	return busy / (horizonSec * float64(len(f.Instances)))
}

// Reset clears every timeline and ledger, returning the fleet to an
// unused state so it can back another schedule.
func (f *Fleet) Reset() {
	for _, inst := range f.Instances {
		*inst = FleetInstance{ID: inst.ID, Type: inst.Type}
	}
}

// LedgerRow is one line of the fleet's utilization/cost summary.
type LedgerRow struct {
	ID      string
	Leases  int
	BusySec float64
	CostUSD float64
	// UtilizationPct is the instance's busy share of the fleet horizon.
	UtilizationPct float64
}

// Ledger summarizes per-instance usage, ordered by instance index, for
// the given horizon (0 means HorizonSec).
func (f *Fleet) Ledger(horizonSec float64) []LedgerRow {
	if horizonSec <= 0 {
		horizonSec = f.HorizonSec()
	}
	rows := make([]LedgerRow, len(f.Instances))
	for i, inst := range f.Instances {
		rows[i] = LedgerRow{
			ID:      inst.ID,
			Leases:  len(inst.Leases),
			BusySec: inst.BusySec,
			CostUSD: inst.CostUSD,
		}
		if horizonSec > 0 {
			rows[i].UtilizationPct = 100 * inst.BusySec / horizonSec
		}
	}
	return rows
}

// Profile returns the fleet's capacity profile: the distinct instance
// types present with their counts, in first-appearance order. It is
// the form a batch optimizer consumes — per-type capacity constraints
// — and, fed back through NewFleet, reproduces a fleet whose
// within-type instance ordering (and therefore every typed Acquire
// tie-break) matches this one.
func (f *Fleet) Profile() []FleetEntry {
	var entries []FleetEntry
	index := map[string]int{}
	for _, inst := range f.Instances {
		if i, ok := index[inst.Type.Name]; ok {
			entries[i].Count++
			continue
		}
		index[inst.Type.Name] = len(entries)
		entries = append(entries, FleetEntry{Type: inst.Type, Count: 1})
	}
	return entries
}

// Clone returns an unused copy of the fleet: the same instance
// sequence — IDs, types, order, so every Acquire tie-break matches —
// with fresh timelines and ledgers. A schedule forecast books leases
// on a clone without dirtying the fleet the real run will use. The
// revocation model is shared, not copied: its timelines are a pure
// function of (seed, instance ID), so the clone sees exactly the
// revocations the original will — the property that makes forecasts
// under faults bit-exact.
func (f *Fleet) Clone() *Fleet {
	out := &Fleet{
		Instances:  make([]*FleetInstance, len(f.Instances)),
		Revocation: f.Revocation,
	}
	for i, inst := range f.Instances {
		out.Instances[i] = &FleetInstance{ID: inst.ID, Type: inst.Type}
	}
	return out
}

// Snapshot returns a deep copy of the fleet's live state — every live
// lease and ledger total — unlike Clone, which returns an unused twin.
// A serving layer trial-books a re-plan on a snapshot and adopts or
// discards the whole fleet state atomically. Leases Settle moved out are
// not copied: the snapshot carries only their ledger folds, so its cost
// is proportional to live work, not to history. The revocation model is
// shared, not copied, for the same reason Clone shares it: its
// timelines are a pure function of (seed, instance ID).
func (f *Fleet) Snapshot() *Fleet {
	out := &Fleet{
		Instances:  make([]*FleetInstance, len(f.Instances)),
		Revocation: f.Revocation,
	}
	for i, inst := range f.Instances {
		cp := *inst
		cp.Leases = append([]Lease(nil), inst.Leases...)
		out.Instances[i] = &cp
	}
	return out
}

// Settle moves each instance's settled prefix out of its live timeline
// and returns it, per instance (nil where nothing settled). A lease is
// settled once it lies wholly in the past: it started before tSec and
// ended by it. Leases are appended in start order and never overlap on
// one instance, so the settled leases always form a prefix. Every
// ledger — CostUSD, BusySec, FreeAtSec, and the re-folds in ReleaseFrom,
// Release and Book — stays bit-identical to the unsettled timeline's,
// because settling keeps the prefix's folds as their starting values.
// The fleet never writes the returned leases again; Unsettle puts them
// back. A settled lease can no longer be released or extended, so
// releases must not reach back before the latest tSec settled, and
// Extend needs a live latest lease.
func (f *Fleet) Settle(tSec float64) [][]Lease {
	var out [][]Lease
	for i, inst := range f.Instances {
		n := 0
		for n < len(inst.Leases) && inst.Leases[n].StartSec < tSec && inst.Leases[n].EndSec <= tSec {
			l := inst.Leases[n]
			inst.settledCost += l.CostUSD
			inst.settledBusy += l.EndSec - l.StartSec
			if l.EndSec > inst.settledFree {
				inst.settledFree = l.EndSec
			}
			n++
		}
		if n == 0 {
			continue
		}
		if out == nil {
			out = make([][]Lease, len(f.Instances))
		}
		out[i] = inst.Leases[:n:n]
		inst.Leases = inst.Leases[n:]
	}
	return out
}

// Unsettle returns a deep copy of the fleet with each instance's
// settled leases (settled[i], in the order Settle returned them, for
// instance i) put back ahead of its live ones — the fleet as it would
// stand had it never settled, ledgers and all.
func (f *Fleet) Unsettle(settled [][]Lease) *Fleet {
	out := f.Snapshot()
	for i, inst := range out.Instances {
		if i < len(settled) && len(settled[i]) > 0 {
			inst.Leases = append(append([]Lease(nil), settled[i]...), inst.Leases...)
		}
		inst.settledCost, inst.settledBusy, inst.settledFree = 0, 0, 0
	}
	return out
}

// ReleaseFrom cancels every live lease that has not started by tSec —
// reservations for future work — and recomputes each instance's
// free-time, busy and cost ledgers from the leases that remain. Leases
// already running at tSec (start < tSec) stand untouched, ends and all:
// a booked stage runs to completion once started (its checkpoint is the
// stage boundary). This is the rolling-horizon seam: a re-optimizer
// releases the uncommitted tail of the schedule and re-books it against
// the fleet's remaining capacity. It returns the number of leases
// released.
func (f *Fleet) ReleaseFrom(tSec float64) int {
	return f.Release(func(l Lease) bool { return l.StartSec >= tSec })
}

// Release cancels every live lease drop reports true for and re-folds
// each instance's ledgers over what remains, continuing from the
// settled prefix's folds. It returns the number of leases released.
func (f *Fleet) Release(drop func(Lease) bool) int {
	released := 0
	for _, inst := range f.Instances {
		kept := inst.Leases[:0]
		for _, l := range inst.Leases {
			if drop(l) {
				released++
				continue
			}
			kept = append(kept, l)
		}
		inst.Leases = kept
		inst.FreeAtSec = inst.settledFree
		inst.BusySec = inst.settledBusy
		for _, l := range inst.Leases {
			if l.EndSec > inst.FreeAtSec {
				inst.FreeAtSec = l.EndSec
			}
			inst.BusySec += l.EndSec - l.StartSec
		}
		inst.CostUSD = instanceCost(inst)
	}
	return released
}

// TypeByName returns the instance type of the given name present in
// the fleet — the lookup a retry policy uses to escalate a revoked
// stage from a spot type to its on-demand counterpart, which only
// works when the fleet actually holds such machines.
func (f *Fleet) TypeByName(name string) (InstanceType, bool) {
	for _, inst := range f.Instances {
		if inst.Type.Name == name {
			return inst.Type, true
		}
	}
	return InstanceType{}, false
}

// Types lists the distinct instance type names present in the fleet,
// sorted, with counts — the menu a scheduling policy can choose from.
func (f *Fleet) Types() map[string]int {
	out := map[string]int{}
	for _, inst := range f.Instances {
		out[inst.Type.Name]++
	}
	return out
}

// String renders a compact spec of the fleet ("gp.4x=2,mem.8x=1").
func (f *Fleet) String() string {
	counts := f.Types()
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, counts[n])
	}
	return strings.Join(parts, ",")
}

package cloud

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// settleFleet builds the property test's fleet: one on-demand and
// three spot machines, so a revocation model has something to cut.
func settleFleet(t *testing.T, revocations bool) *Fleet {
	t.Helper()
	c := spotCatalog(t)
	gp, _ := c.ByName("gp.4x")
	gpSpot, _ := c.ByName("gp.4x.spot")
	memSpot, _ := c.ByName("mem.8x.spot")
	f := NewFleet(FleetEntry{Type: gp, Count: 1}, FleetEntry{Type: gpSpot, Count: 2}, FleetEntry{Type: memSpot, Count: 1})
	if revocations {
		f.Revocation = NewRevocationModel(11, UniformSpotHazards(c, 20))
	}
	return f
}

// sameFleet fails unless got — a settled fleet with its settled
// history — is bit-identical to want, the unsettled twin: ledgers,
// totals, Acquire grants and the full lease lists.
func sameFleet(t *testing.T, step int, got *Fleet, history [][]Lease, want *Fleet, now float64) {
	t.Helper()
	bits := math.Float64bits
	if bits(got.TotalCostUSD()) != bits(want.TotalCostUSD()) {
		t.Fatalf("step %d: total cost %v, twin %v", step, got.TotalCostUSD(), want.TotalCostUSD())
	}
	whole := got.Unsettle(history)
	for i, w := range want.Instances {
		g := got.Instances[i]
		if bits(g.CostUSD) != bits(w.CostUSD) || bits(g.BusySec) != bits(w.BusySec) || bits(g.FreeAtSec) != bits(w.FreeAtSec) {
			t.Fatalf("step %d: instance %d ledger cost/busy/free %v/%v/%v, twin %v/%v/%v",
				step, i, g.CostUSD, g.BusySec, g.FreeAtSec, w.CostUSD, w.BusySec, w.FreeAtSec)
		}
		if !slices.Equal(whole.Instances[i].Leases, w.Leases) {
			t.Fatalf("step %d: instance %d leases (settled+live)\n%+v\ntwin\n%+v", step, i, whole.Instances[i].Leases, w.Leases)
		}
		u := whole.Instances[i]
		if bits(u.CostUSD) != bits(w.CostUSD) || bits(u.BusySec) != bits(w.BusySec) || bits(u.FreeAtSec) != bits(w.FreeAtSec) {
			t.Fatalf("step %d: unsettled copy of instance %d lost its ledger", step, i)
		}
	}
	// The unsettled copy must also behave like the twin: a release
	// re-folds its ledgers from its own full timeline.
	twin := want.Snapshot()
	if g, w := whole.ReleaseFrom(now), twin.ReleaseFrom(now); g != w {
		t.Fatalf("step %d: unsettled copy released %d, twin %d", step, g, w)
	}
	for i, w := range twin.Instances {
		u := whole.Instances[i]
		if bits(u.CostUSD) != bits(w.CostUSD) || bits(u.BusySec) != bits(w.BusySec) || bits(u.FreeAtSec) != bits(w.FreeAtSec) {
			t.Fatalf("step %d: unsettled copy of instance %d re-folds to %v/%v/%v, twin %v/%v/%v",
				step, i, u.CostUSD, u.BusySec, u.FreeAtSec, w.CostUSD, w.BusySec, w.FreeAtSec)
		}
	}
	for _, typ := range []string{"", "gp.4x", "gp.4x.spot", "mem.8x.spot"} {
		for _, ready := range []float64{0, now, now + 250} {
			gi, gs, gerr := got.Acquire(typ, ready)
			wi, ws, werr := want.Acquire(typ, ready)
			if gi != wi || bits(gs) != bits(ws) || (gerr == nil) != (werr == nil) {
				t.Fatalf("step %d: Acquire(%q, %v) = %d@%v, twin %d@%v", step, typ, ready, gi, gs, wi, ws)
			}
		}
	}
}

// TestSettleBitIdenticalToUnsettledTwin drives seeded random
// Book/Extend/ReleaseFrom sequences on two fleets, settling one of
// them at random watermarks, with and without a revocation model.
// After every step the settled fleet plus its history must be
// bit-identical to the twin, and a snapshot of it must share no
// memory with the history or the live timeline.
func TestSettleBitIdenticalToUnsettledTwin(t *testing.T) {
	for _, revocations := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := settleFleet(t, revocations), settleFleet(t, revocations)
			history := make([][]Lease, len(got.Instances))
			now, watermark := 0.0, 0.0
			for step := 0; step < 300; step++ {
				now += float64(rng.Intn(40))
				switch op := rng.Intn(10); {
				case op < 5: // book
					idx := rng.Intn(len(want.Instances))
					start := want.Instances[idx].FreeAtSec + float64(rng.Intn(60))
					dur := float64(rng.Intn(200)) + rng.Float64()
					if rng.Intn(8) == 0 {
						dur = 0
					}
					gl := got.Book(idx, "j", "s", start, dur)
					wl := want.Book(idx, "j", "s", start, dur)
					if got.Lease(idx, gl) != want.Lease(idx, wl) || wl-gl != len(history[idx]) {
						t.Fatalf("seed %d step %d: Book returned lease %d, twin %d", seed, step, gl, wl)
					}
				case op < 7: // extend the latest lease, if it is still live
					idx := rng.Intn(len(want.Instances))
					if len(got.Instances[idx].Leases) == 0 {
						continue
					}
					dur := float64(rng.Intn(120))
					if g, w := got.Extend(idx, "x", dur), want.Extend(idx, "x", dur); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("seed %d step %d: Extend cost %v, twin %v", seed, step, g, w)
					}
				case op < 8: // release the uncommitted tail, never behind a settle
					at := now + float64(rng.Intn(100))
					if g, w := got.ReleaseFrom(at), want.ReleaseFrom(at); g != w {
						t.Fatalf("seed %d step %d: released %d, twin %d", seed, step, g, w)
					}
				default: // settle at a watermark in [last watermark, now]
					watermark += rng.Float64() * (now - watermark)
					for i, leases := range got.Settle(watermark) {
						for _, l := range leases {
							if !(l.StartSec < watermark && l.EndSec <= watermark) {
								t.Fatalf("seed %d step %d: settled unfinished lease %+v at %v", seed, step, l, watermark)
							}
						}
						history[i] = append(history[i], leases...)
					}
				}
				sameFleet(t, step, got, history, want, now)
			}
			// A trial booked on a snapshot must touch neither the history
			// nor the live fleet it was copied from.
			keep := make([][]Lease, len(history))
			for i := range history {
				keep[i] = slices.Clone(history[i])
			}
			snap := got.Snapshot()
			for i, inst := range snap.Instances {
				for j := range inst.Leases {
					inst.Leases[j].Job = "trial"
				}
				snap.Book(i, "trial", "s", inst.FreeAtSec, 30)
			}
			snap.ReleaseFrom(watermark)
			for i := range history {
				if !slices.Equal(history[i], keep[i]) {
					t.Fatalf("seed %d: a snapshot wrote to instance %d's settled history", seed, i)
				}
			}
			sameFleet(t, -1, got, history, want, now)
			// Reset forgets the settled folds along with everything else.
			got.Reset()
			want.Reset()
			sameFleet(t, -2, got, nil, want, 0)
		}
	}
}

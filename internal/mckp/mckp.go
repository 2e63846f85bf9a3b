// Package mckp solves the multi-choice knapsack problem at the heart
// of the paper's deployment optimizer (its Sec. III.C): pick exactly
// one VM configuration per flow stage so the total runtime meets a
// deadline and the deployment cost is optimal.
//
// Two exact pseudo-polynomial dynamic programs are provided — the
// paper's literal objective (maximize the sum of reciprocal prices via
// the Dudzinski–Walukiewicz recurrence) and the operationally intended
// objective (minimize total dollars) — plus a greedy upgrade heuristic
// used as an ablation baseline. Runtimes are integral seconds, an
// assumption the paper justifies by per-second cloud billing.
package mckp

import (
	"fmt"
	"math"
)

// Item is one configuration choice within a class (stage).
type Item struct {
	Label   string
	TimeSec int     // runtime in whole seconds
	Cost    float64 // deployment cost in USD
}

// Class is one flow stage with its alternative configurations.
type Class struct {
	Name  string
	Items []Item
}

// Selection is a solution: one item index per class.
type Selection struct {
	Feasible  bool
	Pick      []int // item index per class, aligned with input order
	TotalTime int
	TotalCost float64
	// Objective is the maximized paper objective (sum of 1/cost) when
	// produced by SolvePaper; zero otherwise.
	Objective float64
}

// ExportedPick is one class's solved choice in self-describing form:
// the class and item labels plus the item's time/cost, so downstream
// layers (deployment execution, reports) can consume a plan without
// knowing item indices.
type ExportedPick struct {
	Class   string
	Label   string
	TimeSec int
	Cost    float64
}

// Export renders a feasible selection against the classes it solved as
// labeled picks, in class order.
func (s Selection) Export(classes []Class) ([]ExportedPick, error) {
	if !s.Feasible {
		return nil, fmt.Errorf("mckp: infeasible selection exports no plan")
	}
	// An empty choice table must not silently export a zero-stage plan:
	// downstream layers would schedule nothing and bill nothing, hiding
	// the configuration error that emptied the table.
	if len(classes) == 0 {
		return nil, fmt.Errorf("mckp: empty choice table exports no plan")
	}
	for _, cl := range classes {
		if len(cl.Items) == 0 {
			return nil, fmt.Errorf("mckp: class %q has no items to export", cl.Name)
		}
	}
	if len(s.Pick) != len(classes) {
		return nil, fmt.Errorf("mckp: selection picks %d classes, classes are %d", len(s.Pick), len(classes))
	}
	out := make([]ExportedPick, len(classes))
	for l, j := range s.Pick {
		if j < 0 || j >= len(classes[l].Items) {
			return nil, fmt.Errorf("mckp: pick %d out of range for class %q", j, classes[l].Name)
		}
		it := classes[l].Items[j]
		out[l] = ExportedPick{Class: classes[l].Name, Label: it.Label, TimeSec: it.TimeSec, Cost: it.Cost}
	}
	return out, nil
}

func validate(classes []Class, deadline int) error {
	if len(classes) == 0 {
		return fmt.Errorf("mckp: no classes")
	}
	if deadline < 0 {
		return fmt.Errorf("mckp: negative deadline %d", deadline)
	}
	for _, cl := range classes {
		if len(cl.Items) == 0 {
			return fmt.Errorf("mckp: class %q has no items", cl.Name)
		}
		for _, it := range cl.Items {
			if it.TimeSec < 0 || it.Cost < 0 {
				return fmt.Errorf("mckp: class %q has negative item %+v", cl.Name, it)
			}
		}
	}
	return nil
}

// SolvePaper maximizes the paper's objective sum(1/p_ij) subject to
// sum(t_ij) <= deadline, exactly one pick per class, using the
// Dudzinski–Walukiewicz dynamic program over integral time.
func SolvePaper(classes []Class, deadline int) (Selection, error) {
	if err := validate(classes, deadline); err != nil {
		return Selection{}, err
	}
	score := func(it Item) float64 {
		if it.Cost <= 0 {
			return math.Inf(1)
		}
		return 1 / it.Cost
	}
	return solveDP(classes, deadline, score, false)
}

// SolveMinCost minimizes total cost subject to the deadline, the
// operational variant the paper's Table I reports (its "Min Cost($)"
// column).
func SolveMinCost(classes []Class, deadline int) (Selection, error) {
	if err := validate(classes, deadline); err != nil {
		return Selection{}, err
	}
	return solveDP(classes, deadline, func(it Item) float64 { return -it.Cost }, true)
}

// solveDP runs the layered DP: z_l(c) = best over j of
// z_{l-1}(c - t_lj) + value(item_lj). Larger is better for the value
// function; minCost repurposes it with negated cost.
//
// A budget past the slowest plan is capped there: every selection fits
// either way, and the DP picks the same items at any budget at or above
// the slowest plan, so the cap changes no result — it only keeps a lax
// deadline from sizing the table.
func solveDP(classes []Class, deadline int, value func(Item) float64, minCost bool) (Selection, error) {
	deadline = min(deadline, MaxTotalTime(classes))
	n := len(classes)
	width := deadline + 1
	negInf := math.Inf(-1)

	cur := make([]float64, width)
	prev := make([]float64, width)
	// choice[l*width+c] is the item picked for class l at budget c.
	choice := make([]int16, n*width)
	for c := 0; c < width; c++ {
		prev[c] = 0 // zero classes: value 0 at any budget
	}
	for l := 0; l < n; l++ {
		for c := 0; c < width; c++ {
			cur[c] = negInf
			choice[l*width+c] = -1
		}
		for j, it := range classes[l].Items {
			v := value(it)
			for c := it.TimeSec; c < width; c++ {
				base := prev[c-it.TimeSec]
				if math.IsInf(base, -1) {
					continue
				}
				if cand := base + v; cand > cur[c] {
					cur[c] = cand
					choice[l*width+c] = int16(j)
				}
			}
		}
		prev, cur = cur, prev
	}
	// prev now holds z_n. Optimal value is at the full budget: the DP
	// is monotone in c because every z_{l}(c) allows slack.
	best := prev[deadline]
	if math.IsInf(best, -1) {
		return Selection{Feasible: false}, nil
	}
	sel := Selection{Feasible: true, Pick: make([]int, n)}
	// Reconstruct: walk budgets backward. We must recompute layer
	// values because only two rows were kept; rebuild the full table
	// cheaply by re-running the DP with stored choices... choices were
	// stored per layer, so walk directly.
	c := deadline
	for l := n - 1; l >= 0; l-- {
		j := choice[l*width+c]
		if j < 0 {
			return Selection{Feasible: false}, nil
		}
		sel.Pick[l] = int(j)
		it := classes[l].Items[j]
		sel.TotalTime += it.TimeSec
		sel.TotalCost += it.Cost
		c -= it.TimeSec
	}
	if !minCost {
		sel.Objective = best
	}
	return sel, nil
}

// SolveGreedy is the upgrade heuristic baseline: start from the
// cheapest item per class, then while the deadline is violated, apply
// the upgrade with the best time-saved-per-extra-dollar ratio. It is
// not optimal — bench_test.go's ablation quantifies the gap.
func SolveGreedy(classes []Class, deadline int) (Selection, error) {
	if err := validate(classes, deadline); err != nil {
		return Selection{}, err
	}
	n := len(classes)
	pick := make([]int, n)
	for l, cl := range classes {
		for j, it := range cl.Items {
			if it.Cost < cl.Items[pick[l]].Cost {
				pick[l] = j
			}
		}
	}
	total := func() (int, float64) {
		t, p := 0, 0.0
		for l, j := range pick {
			t += classes[l].Items[j].TimeSec
			p += classes[l].Items[j].Cost
		}
		return t, p
	}
	for {
		t, _ := total()
		if t <= deadline {
			break
		}
		bestL, bestJ := -1, -1
		bestRatio := math.Inf(-1)
		for l := 0; l < n; l++ {
			curIt := classes[l].Items[pick[l]]
			for j, it := range classes[l].Items {
				saved := curIt.TimeSec - it.TimeSec
				if saved <= 0 {
					continue
				}
				extra := it.Cost - curIt.Cost
				var ratio float64
				if extra <= 0 {
					ratio = math.Inf(1) // free speedup
				} else {
					ratio = float64(saved) / extra
				}
				if ratio > bestRatio {
					bestRatio = ratio
					bestL, bestJ = l, j
				}
			}
		}
		if bestL < 0 {
			return Selection{Feasible: false}, nil // no upgrades left
		}
		pick[bestL] = bestJ
	}
	t, p := total()
	return Selection{Feasible: true, Pick: pick, TotalTime: t, TotalCost: p}, nil
}

// FixedProvision returns the selection that uses item index j in every
// class (the paper's over-provisioning j=fastest and under-provisioning
// j=cheapest baselines in Fig. 6), ignoring any deadline.
func FixedProvision(classes []Class, j func(Class) int) (Selection, error) {
	if err := validate(classes, 0); err != nil {
		return Selection{}, err
	}
	sel := Selection{Feasible: true, Pick: make([]int, len(classes))}
	for l, cl := range classes {
		idx := j(cl)
		if idx < 0 || idx >= len(cl.Items) {
			return Selection{}, fmt.Errorf("mckp: provision index %d out of range for class %q", idx, cl.Name)
		}
		sel.Pick[l] = idx
		sel.TotalTime += cl.Items[idx].TimeSec
		sel.TotalCost += cl.Items[idx].Cost
	}
	return sel, nil
}

// Fastest returns the index of the minimum-time item of a class.
func Fastest(cl Class) int {
	best := 0
	for j, it := range cl.Items {
		if it.TimeSec < cl.Items[best].TimeSec {
			best = j
		}
	}
	return best
}

// Cheapest returns the index of the minimum-cost item of a class.
func Cheapest(cl Class) int {
	best := 0
	for j, it := range cl.Items {
		if it.Cost < cl.Items[best].Cost {
			best = j
		}
	}
	return best
}

// MinTotalTime returns the smallest achievable total runtime, the
// feasibility threshold below which every solver reports NA.
func MinTotalTime(classes []Class) int {
	t := 0
	for _, cl := range classes {
		t += cl.Items[Fastest(cl)].TimeSec
	}
	return t
}

// MaxTotalTime returns the slowest plan's total runtime, a budget every
// selection fits under.
func MaxTotalTime(classes []Class) int {
	t := 0
	for _, cl := range classes {
		worst := 0
		for _, it := range cl.Items {
			worst = max(worst, it.TimeSec)
		}
		t += worst
	}
	return t
}

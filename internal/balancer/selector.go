package balancer

import (
	"fmt"
	"math"
	"slices"
)

// FragCandidate is one exportable unit (dirfrag or whole subtree) offered to
// a selector.
type FragCandidate struct {
	// ID is the candidate's position in the list offered to the selector.
	ID int
	// Load is the candidate's metadata load under the active policy.
	Load float64
}

// Selector picks candidates to ship toward a target load and returns their
// IDs. Selectors must not mutate cands.
type Selector func(cands []FragCandidate, target float64) []int

// Shipped sums the load of the chosen candidates, in chosen order. An ID
// outside the candidate list ships nothing.
func Shipped(cands []FragCandidate, chosen []int) float64 {
	sum := 0.0
	for _, id := range chosen {
		if uint(id) < uint(len(cands)) {
			sum += cands[id].Load
		}
	}
	return sum
}

func sortedCopy(cands []FragCandidate, desc bool) []FragCandidate {
	out := slices.Clone(cands)
	if desc {
		slices.SortStableFunc(out, func(a, b FragCandidate) int { return byLoad(b, a) })
	} else {
		slices.SortStableFunc(out, byLoad)
	}
	return out
}

// byLoad orders candidates by ascending load. Loads that compare neither
// way (a NaN) are equal, as they were to sort.SliceStable's less.
func byLoad(a, b FragCandidate) int {
	switch {
	case a.Load < b.Load:
		return -1
	case a.Load > b.Load:
		return 1
	}
	return 0
}

// BigFirst ships the largest candidates until the target is reached — the
// original CephFS heuristic ("export largest dirfrag" in Table 1).
func BigFirst(cands []FragCandidate, target float64) []int {
	var chosen []int
	sent := 0.0
	for _, c := range sortedCopy(cands, true) {
		if sent >= target {
			break
		}
		chosen = append(chosen, c.ID)
		sent += c.Load
	}
	return chosen
}

// SmallFirst ships the smallest candidates until the target is reached.
func SmallFirst(cands []FragCandidate, target float64) []int {
	var chosen []int
	sent := 0.0
	for _, c := range sortedCopy(cands, false) {
		if sent >= target {
			break
		}
		chosen = append(chosen, c.ID)
		sent += c.Load
	}
	return chosen
}

// BigSmall alternates between the largest and smallest remaining candidates
// until the target is reached.
func BigSmall(cands []FragCandidate, target float64) []int {
	s := sortedCopy(cands, true)
	var chosen []int
	sent := 0.0
	lo, hi := 0, len(s)-1
	big := true
	for lo <= hi && sent < target {
		var c FragCandidate
		if big {
			c = s[lo]
			lo++
		} else {
			c = s[hi]
			hi--
		}
		big = !big
		chosen = append(chosen, c.ID)
		sent += c.Load
	}
	return chosen
}

// Half ships the first half of the candidate list in its given order — the
// selector Greedy Spill uses to move exactly half the dirfrags (Listing 1).
func Half(cands []FragCandidate, target float64) []int {
	if len(cands) == 0 || target <= 0 {
		return nil
	}
	n := len(cands) / 2
	if n == 0 {
		n = 1
	}
	chosen := make([]int, 0, n)
	for _, c := range cands[:n] {
		chosen = append(chosen, c.ID)
	}
	return chosen
}

// Selectors is the registry of named dirfrag selectors available to
// policies. The names match the paper ("big_first", "small_first",
// "big_small", "half"; "small" and "big" are accepted aliases used in
// Listing 4).
var Selectors = map[string]Selector{
	"big_first":   BigFirst,
	"big":         BigFirst,
	"small_first": SmallFirst,
	"small":       SmallFirst,
	"big_small":   BigSmall,
	"half":        Half,
}

// ChooseFrags runs every named selector and keeps the one whose shipped load
// lands closest to the target — Mantle's arbitration over the howmuch list.
// It returns the chosen candidate IDs, the shipped load, and the name of the
// winning selector. Unknown selector names are an error (a typo in a policy
// should surface, not silently no-op).
func ChooseFrags(names []string, cands []FragCandidate, target float64) (chosen []int, shipped float64, used string, err error) {
	if len(names) == 0 {
		names = []string{"big_first"}
	}
	best := math.Inf(1)
	for _, name := range names {
		sel, ok := Selectors[name]
		if !ok {
			return nil, 0, "", fmt.Errorf("balancer: unknown dirfrag selector %q", name)
		}
		ids := sel(cands, target)
		s := Shipped(cands, ids)
		d := math.Abs(s - target)
		if d < best {
			best = d
			chosen, shipped, used = ids, s, name
		}
	}
	return chosen, shipped, used, nil
}

package balancer

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// paperLoads is the worked example from §2.2.3: eight hot dirfrags on MDS0.
var paperLoads = []float64{12.7, 13.3, 13.3, 14.6, 15.7, 13.5, 13.7, 14.6}

func candidates(loads []float64) []FragCandidate {
	out := make([]FragCandidate, len(loads))
	for i, l := range loads {
		out[i] = FragCandidate{ID: i, Load: l}
	}
	return out
}

func TestBigFirstPaperExample(t *testing.T) {
	// With the 0.8 need-min fudge the target is 55.6*0.8 = 44.48 and the
	// original balancer ships only three dirfrags: 15.7+14.6+14.6 = 44.9.
	cands := candidates(paperLoads)
	chosen := BigFirst(cands, 55.6*0.8)
	if len(chosen) != 3 {
		t.Fatalf("big_first chose %d frags, want 3", len(chosen))
	}
	if got := Shipped(cands, chosen); math.Abs(got-44.9) > 1e-9 {
		t.Fatalf("shipped %v, want 44.9", got)
	}
}

func TestBigFirstUnscaledTarget(t *testing.T) {
	cands := candidates(paperLoads)
	chosen := BigFirst(cands, 55.6)
	// 15.7+14.6+14.6=44.9 < 55.6, so one more (13.7) ships: 58.6.
	if got := Shipped(cands, chosen); math.Abs(got-58.6) > 1e-9 {
		t.Fatalf("shipped %v, want 58.6", got)
	}
}

func TestSmallFirst(t *testing.T) {
	cands := candidates([]float64{5, 1, 3, 2, 4})
	chosen := SmallFirst(cands, 6)
	// 1+2+3 = 6 ≥ 6.
	if got := Shipped(cands, chosen); got != 6 {
		t.Fatalf("shipped %v, want 6", got)
	}
	if len(chosen) != 3 {
		t.Fatalf("chose %d", len(chosen))
	}
}

func TestBigSmallAlternates(t *testing.T) {
	cands := candidates([]float64{1, 2, 3, 4})
	chosen := BigSmall(cands, 100) // take everything: order 4,1,3,2
	want := []int{3, 0, 2, 1}
	if len(chosen) != 4 {
		t.Fatalf("chose %v", chosen)
	}
	for i := range want {
		if chosen[i] != want[i] {
			t.Fatalf("order = %v, want %v", chosen, want)
		}
	}
}

func TestHalf(t *testing.T) {
	cands := candidates([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	chosen := Half(cands, 1)
	if len(chosen) != 4 {
		t.Fatalf("half of 8 = %d", len(chosen))
	}
	for i, id := range chosen {
		if id != i {
			t.Fatalf("half must take the first half in order, got %v", chosen)
		}
	}
	if got := Half(candidates([]float64{9}), 1); len(got) != 1 {
		t.Fatalf("half of 1 = %v", got)
	}
	if got := Half(cands, 0); got != nil {
		t.Fatalf("half with zero target = %v", got)
	}
	if got := Half(nil, 5); got != nil {
		t.Fatalf("half of empty = %v", got)
	}
}

func TestChooseFragsPicksClosest(t *testing.T) {
	// Mantle runs every listed selector and keeps the closest to target
	// (§3.2's dirfrag-selector arbitration on the paper's example).
	cands := candidates(paperLoads)
	target := 55.6
	chosen, shipped, used, err := ChooseFrags([]string{"big_first", "small_first", "big_small", "half"}, cands, target)
	if err != nil {
		t.Fatal(err)
	}
	// Whatever wins must beat or match big_first's distance (3.0).
	bigDist := math.Abs(Shipped(cands, BigFirst(cands, target)) - target)
	gotDist := math.Abs(shipped - target)
	if gotDist > bigDist {
		t.Fatalf("arbitration chose %s with distance %v, worse than big_first's %v", used, gotDist, bigDist)
	}
	if len(chosen) == 0 {
		t.Fatal("no frags chosen")
	}
	t.Logf("winner %s shipped %.1f (target %.1f, distance %.2f)", used, shipped, target, gotDist)
}

func TestChooseFragsUnknownSelector(t *testing.T) {
	_, _, _, err := ChooseFrags([]string{"nope"}, candidates(paperLoads), 10)
	if err == nil {
		t.Fatal("expected error for unknown selector")
	}
}

func TestChooseFragsDefaultsToBigFirst(t *testing.T) {
	cands := candidates(paperLoads)
	chosen, _, used, err := ChooseFrags(nil, cands, 30)
	if err != nil || used != "big_first" {
		t.Fatalf("used=%q err=%v", used, err)
	}
	if len(chosen) != 2 { // 15.7+14.6 = 30.3 >= 30
		t.Fatalf("chose %v", chosen)
	}
}

func TestSelectorsDoNotMutateInput(t *testing.T) {
	cands := candidates([]float64{3, 1, 2})
	for name, sel := range Selectors {
		sel(cands, 100)
		for i, c := range cands {
			if c.ID != i {
				t.Fatalf("selector %s mutated input order", name)
			}
		}
	}
}

// Property: every selector ships a subset of candidates with no duplicates,
// and (except half, which is count-based) stops as soon as the target is
// met: removing the last chosen frag drops the total below the target.
func TestSelectorProperty(t *testing.T) {
	f := func(raw []uint16, tgt uint16) bool {
		if len(raw) == 0 {
			return true
		}
		loads := make([]float64, len(raw))
		for i, r := range raw {
			loads[i] = float64(r%1000) / 10
		}
		cands := candidates(loads)
		target := float64(tgt%2000) / 10
		for name, sel := range Selectors {
			chosen := sel(cands, target)
			seen := map[int]bool{}
			for _, id := range chosen {
				if id < 0 || id >= len(cands) || seen[id] {
					return false
				}
				seen[id] = true
			}
			if name == "half" {
				continue
			}
			shipped := Shipped(cands, chosen)
			if len(chosen) > 0 && target > 0 {
				last := cands[chosen[len(chosen)-1]].Load
				// The selector's running sum and Shipped's re-sum
				// can differ in the last ulp; only a clear
				// overshoot is a bug.
				if shipped-last >= target+1e-6 && last > 0 {
					return false // overshot: kept sending past target
				}
			}
			_ = shipped
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShippedEmpty(t *testing.T) {
	if Shipped(nil, nil) != 0 {
		t.Fatal("empty shipped should be 0")
	}
}

// shippedOracle and sortedOracle are Shipped and sortedCopy as they were
// before selection stopped allocating per selector: a map from ID to load,
// and sort.SliceStable. The rewrites must return the same bits and orders.
func shippedOracle(cands []FragCandidate, chosen []int) float64 {
	byID := make(map[int]float64, len(cands))
	for _, c := range cands {
		byID[c.ID] = c.Load
	}
	sum := 0.0
	for _, id := range chosen {
		sum += byID[id]
	}
	return sum
}

func sortedOracle(cands []FragCandidate, desc bool) []FragCandidate {
	out := append([]FragCandidate(nil), cands...)
	sort.SliceStable(out, func(i, j int) bool {
		if desc {
			return out[i].Load > out[j].Load
		}
		return out[i].Load < out[j].Load
	})
	return out
}

// TestSelectionMatchesOracles: over chosen IDs in and out of range, and
// loads with ties, NaNs and signed zeros, Shipped sums to the oracle's bits
// and sortedCopy orders as sort.SliceStable did.
func TestSelectionMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := []float64{0, math.Copysign(0, -1), 1, 1, 2.5, 1e-300, 7, math.NaN(), math.Inf(1), 13.3, 13.3}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(40)
		cands := make([]FragCandidate, n)
		for i := range cands {
			cands[i] = FragCandidate{ID: i, Load: pool[rng.Intn(len(pool))]}
			if trial%3 == 0 {
				cands[i].Load = rng.Float64() * 100
			}
		}
		chosen := make([]int, rng.Intn(n+2))
		for i := range chosen {
			chosen[i] = rng.Intn(n+4) - 2
		}
		if got, want := Shipped(cands, chosen), shippedOracle(cands, chosen); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Shipped %v, oracle %v\n%+v %v", trial, got, want, cands, chosen)
		}
		for _, desc := range []bool{false, true} {
			got, want := sortedCopy(cands, desc), sortedOracle(cands, desc)
			for i := range want {
				if got[i].ID != want[i].ID || math.Float64bits(got[i].Load) != math.Float64bits(want[i].Load) {
					t.Fatalf("trial %d desc=%v: sorted %+v, oracle %+v", trial, desc, got, want)
				}
			}
		}
	}
}

// TestChooseFragsAllocs pins what arbitration over the four selectors
// allocates for 64 candidates: per selector, the sorted copy and the chosen
// IDs' growth; no map and no sort swapper (40 allocations with them).
// Re-pin down only.
func TestChooseFragsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	loads := make([]float64, 64)
	for i := range loads {
		loads[i] = rng.Float64() * 100
	}
	cands := candidates(loads)
	names := []string{"big_first", "small_first", "big_small", "half"}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, err := ChooseFrags(names, cands, 600); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 19 {
		t.Errorf("ChooseFrags allocates %v times, want at most 19", allocs)
	}
}

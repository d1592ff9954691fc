package mds

import (
	"fmt"
	"testing"

	"mantle/internal/namespace"
)

// TestRoutesRoute: each case learns its hints into a fresh table, then
// checks where paths route.
func TestRoutesRoute(t *testing.T) {
	kids := namespace.RootFrag.Split(1)
	split := []FragHint{{Frag: kids[0], Rank: 0}, {Frag: kids[1], Rank: 1}}
	// fragRank is the rank split assigns to name.
	fragRank := func(name string) namespace.Rank {
		if kids[1].ContainsName(name) {
			return 1
		}
		return 0
	}
	var fragWant []route
	for i := 0; i < 40; i++ {
		name := string(rune('a'+i%26)) + string(rune('a'+i/26))
		fragWant = append(fragWant, route{"/d/" + name, fragRank(name)})
	}
	for _, tc := range []struct {
		name  string
		hints []Hint
		want  []route
	}{
		{"DefaultIsRank0", nil, []route{{"/x/y", 0}, {"/", 0}, {"", 0}, {"relative", 0}}},
		{"LongestPrefixWins", []Hint{{DirPath: "/a", Rank: 1}, {DirPath: "/a/b", Rank: 2}},
			[]route{{"/a/b/f", 2}, {"/a/b", 2}, {"/a/c", 1}, {"/a", 1}, {"/b", 0}}},
		{"PrefixMatchesWholeComponentsOnly", []Hint{{DirPath: "/ab", Rank: 1}},
			[]route{{"/abc/f", 0}, {"/abc", 0}, {"/ab/f", 1}, {"/a", 0}}},
		{"TrailingAndDoubledSlashes", []Hint{{DirPath: "/a", Rank: 1}, {DirPath: "/a/b", Rank: 2}},
			[]route{{"/a/", 1}, {"/a/b/", 2}, {"/a/b//", 2}, {"/a//b", 1}, {"/a//c", 1}, {"//a", 0}, {"/a/b//f", 2}}},
		{"RootHintMoves", []Hint{{DirPath: "/", Rank: 2}, {DirPath: "/a", Rank: 1}},
			[]route{{"/x", 2}, {"/a/f", 1}}},
		{"FragRouting", []Hint{{DirPath: "/d", Rank: 0, Frags: split}}, fragWant},
		{"FragHintClearedBySubtreeHint", []Hint{{DirPath: "/d", Rank: 0, Frags: split}, {DirPath: "/d", Rank: 1}},
			[]route{{"/d/aa", 1}, {"/d/ab", 1}, {"/d/ac", 1}, {"/d", 1}}},
		{"FragMapIsForChildrenOnly", []Hint{{DirPath: "/d", Rank: 2, Frags: split}},
			[]route{{"/d", 2}, {"/d/", 2}}},
		{"RankZeroUnderNonZeroAncestor", []Hint{{DirPath: "/a", Rank: 3}, {DirPath: "/a/b", Rank: 0}},
			[]route{{"/a/b/f", 0}, {"/a/c", 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRoutes()
			for _, h := range tc.hints {
				r.Learn(h)
			}
			for _, w := range tc.want {
				if got := r.Route(w.path); got != w.rank {
					t.Errorf("Route(%q) = %d, want %d", w.path, got, w.rank)
				}
			}
		})
	}
}

type route struct {
	path string
	rank namespace.Rank
}

// TestRoutesKnows: Knows is true exactly when Learn would change nothing.
// A missing entry is unknown even for a rank-0 hint, which a plain map read
// would mistake for a stored 0.
func TestRoutesKnows(t *testing.T) {
	kids := namespace.RootFrag.Split(1)
	split := []FragHint{{Frag: kids[0], Rank: 0}, {Frag: kids[1], Rank: 1}}
	r := NewRoutes()
	r.Learn(Hint{DirPath: "/a", Rank: 3})
	r.Learn(Hint{DirPath: "/d", Rank: 0, Frags: split})
	for _, tc := range []struct {
		h    Hint
		want bool
	}{
		{Hint{DirPath: "/", Rank: 0}, true},
		{Hint{DirPath: "/a", Rank: 3}, true},
		{Hint{DirPath: "/a", Rank: 0}, false},
		{Hint{DirPath: "/a/b", Rank: 0}, false},
		{Hint{DirPath: "/d", Rank: 0, Frags: split}, true},
		{Hint{DirPath: "/d", Rank: 0}, false},
		{Hint{DirPath: "/d", Rank: 0, Frags: split[:1]}, false},
		{Hint{DirPath: "/a", Rank: 3, Frags: []FragHint{}}, true},
	} {
		if got := r.Knows(tc.h); got != tc.want {
			t.Errorf("Knows(%+v) = %v, want %v", tc.h, got, tc.want)
		}
		if !tc.want {
			continue
		}
		before := fmt.Sprint(r.subtree, r.frags)
		r.Learn(tc.h)
		if after := fmt.Sprint(r.subtree, r.frags); after != before {
			t.Errorf("Learn(%+v) changed a table that Knows it: %s → %s", tc.h, before, after)
		}
	}
}

// TestRoutesSeedAndLen: a seeded entry routes like a learned one and a
// later hint overwrites it.
func TestRoutesSeedAndLen(t *testing.T) {
	r := NewRoutes()
	r.Seed("/s", 2)
	if r.Len() != 2 || r.Route("/s/f") != 2 {
		t.Fatalf("seed: len %d, /s/f → %d", r.Len(), r.Route("/s/f"))
	}
	r.Learn(Hint{DirPath: "/s", Rank: 1})
	if r.Len() != 2 || r.Route("/s/f") != 1 {
		t.Fatalf("learn over seed: len %d, /s/f → %d", r.Len(), r.Route("/s/f"))
	}
}

func TestSplitPath(t *testing.T) {
	cases := []struct{ in, dir, name string }{
		{"/", "/", ""},
		{"", "/", ""},
		{"/a", "/", "a"},
		{"/a/b", "/a", "b"},
		{"/a/b/", "/a", "b"},
		{"/a/b//", "/a", "b"},
		{"/a//b", "/a/", "b"},
		{"/a/b/c.txt", "/a/b", "c.txt"},
		{"relative", "/", "relative"},
	}
	for _, cse := range cases {
		d, n := SplitPath(cse.in)
		if d != cse.dir || n != cse.name {
			t.Errorf("SplitPath(%q) = %q,%q want %q,%q", cse.in, d, n, cse.dir, cse.name)
		}
	}
}

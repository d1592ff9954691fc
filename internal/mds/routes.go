package mds

import (
	"slices"
	"strings"

	"mantle/internal/namespace"
)

// Routes is a client's routing table, learned from reply hints as CephFS
// clients build their subtree map from responses: a fragment map for each
// directory whose dirfrags have split authority, and a subtree map answered
// by longest path prefix. It holds ranks as the hints gave them; a caller
// clamps them to the ranks it can address. Routes is not safe for
// concurrent use.
type Routes struct {
	subtree map[string]namespace.Rank
	frags   map[string][]FragHint
}

// NewRoutes returns the table of a fresh mount: everything routes to rank 0.
func NewRoutes() *Routes {
	return &Routes{
		subtree: map[string]namespace.Rank{"/": 0},
		frags:   map[string][]FragHint{},
	}
}

// Len reports how many subtree entries the table holds.
func (r *Routes) Len() int { return len(r.subtree) }

// Learn folds a reply hint into the table. A hint without fragments clears
// any fragment map learned earlier for its directory.
func (r *Routes) Learn(h Hint) {
	if len(h.Frags) > 0 {
		r.frags[h.DirPath] = h.Frags
	} else {
		delete(r.frags, h.DirPath)
	}
	r.subtree[h.DirPath] = h.Rank
}

// Knows reports whether Learn(h) would change nothing: the directory has an
// entry, with h's rank and h's fragment map.
func (r *Routes) Knows(h Hint) bool {
	rk, ok := r.subtree[h.DirPath]
	return ok && rk == h.Rank && slices.Equal(r.frags[h.DirPath], h.Frags)
}

// Seed pre-loads a subtree→rank mapping before traffic starts (a warm
// mdsmap); later hints overwrite it.
func (r *Routes) Seed(path string, rk namespace.Rank) { r.subtree[path] = rk }

// Route picks the rank for an operation on path: the fragment map of its
// parent directory first, then the longest subtree prefix, found by walking
// up the path one component at a time (the first hit is the longest).
func (r *Routes) Route(path string) namespace.Rank {
	dir, name := SplitPath(path)
	if name != "" {
		if fh := r.frags[dir]; len(fh) > 0 {
			h := namespace.HashName(name)
			for _, f := range fh {
				if f.Frag.Contains(h) {
					return f.Rank
				}
			}
		}
	}
	p := strings.TrimRight(path, "/")
	for p != "" && p != "/" {
		if rk, ok := r.subtree[p]; ok {
			return rk
		}
		i := strings.LastIndexByte(p, '/')
		if i <= 0 {
			break
		}
		p = p[:i]
	}
	return r.subtree["/"]
}

// SplitPath returns (parentDir, name) for a path; the root has name "".
func SplitPath(p string) (string, string) {
	if p == "/" || p == "" {
		return "/", ""
	}
	p = strings.TrimRight(p, "/")
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/", p[i+1:]
	}
	return p[:i], p[i+1:]
}

package namespace

import (
	"strings"
)

// Dentry-path resolution cache.
//
// Resolve and ResolveDirOf used to split the path string and walk one child
// map per component on every request. The cache maps previously resolved
// path strings straight to their nodes so steady-state resolution is one
// lookup (plus at most one child-map lookup for the final component).
//
// Invalidation is by generation: Remove, Rename, SetAuthOverride and
// SetFragAuth bump resGen, instantly staling every entry. Creates never
// invalidate — they only add paths, and a cached path→node mapping for an
// existing entry stays true when a sibling appears. The auth bumps are
// conservative (a label move never changes the path→node mapping) but keep
// the cache's lifetime rules identical to the subtree partition's, which
// makes reasoning about migration races trivial; migrations are
// heartbeat-rate events, so the cost is one cold lookup per path afterwards.
//
// Only slow-path successes populate the cache, keyed by the exact input
// string, so a hit is by construction the answer the uncached walk gave for
// that same string. The fast path additionally answers "<cached-dir>/name"
// by one child lookup; it refuses any split that could change validation
// semantics (empty, "." or ".." final components, doubled slashes) and
// falls back to the slow path for every failure so error text is identical.

// resolveCacheMax bounds the entry count; the map is dropped wholesale when
// full (steady-state working sets are far smaller; an adversarial stream of
// distinct paths just round-robins the memory).
const resolveCacheMax = 1 << 16

type resolveEnt struct {
	node *Node
	gen  uint64
}

// cacheGet answers path from the domain's cache, nil on miss or stale entry.
func (ns *Namespace) cacheGet(d *domain, path string) *Node {
	if e, ok := d.resCache[path]; ok && e.gen == ns.resGen.Load() {
		return e.node
	}
	return nil
}

// cachePut records a slow-path resolution success.
func (ns *Namespace) cachePut(d *domain, path string, n *Node) {
	if d.resCache == nil {
		return
	}
	if len(d.resCache) >= resolveCacheMax {
		d.resCache = make(map[string]resolveEnt, resolveCacheMax/4)
	}
	d.resCache[path] = resolveEnt{node: n, gen: ns.resGen.Load()}
}

// invalidateResolves stales every domain's cached resolutions.
func (ns *Namespace) invalidateResolves() { ns.resGen.Add(1) }

// simpleComponent reports whether name is a valid single path component by
// SplitPath's rules (no separators, not empty, not "." or "..").
func simpleComponent(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.Contains(name, "/")
}

// splitLast splits path into a directory prefix and final component for the
// cache fast path. ok is false whenever the split could diverge from
// SplitPath semantics (relative path, trailing or doubled slash, dot
// components); such paths take the slow path.
func splitLast(path string) (prefix, name string, ok bool) {
	i := strings.LastIndexByte(path, '/')
	if i < 0 || path[0] != '/' {
		return "", "", false
	}
	name = path[i+1:]
	if !simpleComponent(name) {
		return "", "", false
	}
	if i == 0 {
		return "", name, true // root-level entry: prefix is the root itself
	}
	if path[i-1] == '/' {
		return "", "", false // "...//name" — the slow path must reject it
	}
	return path[:i], name, true
}

// cacheResolve answers Resolve(path) from the cache, nil when the slow path
// must run (miss, failure, or unsplittable path).
func (ns *Namespace) cacheResolve(d *domain, path string) *Node {
	if d.resCache == nil {
		return nil
	}
	if n := ns.cacheGet(d, path); n != nil {
		return n
	}
	prefix, name, ok := splitLast(path)
	if !ok {
		return nil
	}
	dir := ns.root
	if prefix != "" {
		if dir = ns.cacheGet(d, prefix); dir == nil {
			return nil
		}
	}
	if !dir.IsDir() {
		return nil // slow path reports ErrNotDir with the right message
	}
	child, ok2 := dir.childGet(name)
	if !ok2 {
		return nil // slow path reports ErrNotExist
	}
	ns.cachePut(d, path, child)
	return child
}

// cacheResolveDir answers ResolveDirOf(path) from the cache. Unlike
// cacheResolve, the final component need not exist — only its directory.
func (ns *Namespace) cacheResolveDir(d *domain, path string) (*Node, string, bool) {
	if d.resCache == nil {
		return nil, "", false
	}
	prefix, name, ok := splitLast(path)
	if !ok {
		return nil, "", false
	}
	if prefix == "" {
		return ns.root, name, true
	}
	dir := ns.cacheGet(d, prefix)
	if dir == nil || !dir.IsDir() {
		return nil, "", false
	}
	return dir, name, true
}

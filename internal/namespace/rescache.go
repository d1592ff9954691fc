package namespace

import (
	"strings"
)

// Directory resolution cache.
//
// A CephFS MDS looks a dentry up by (directory, name). The cache does the
// same: it maps the path of a previously walked directory straight to its
// node, and answers any path as that directory plus one child-table probe
// for the final component. It holds directories only — never a file — so
// its size follows the number of directories a rank has walked, not the
// number of files it has touched, and a stream of distinct file names in
// known directories never fills it.
//
// Invalidation is by generation: Remove, Rename, SetAuthOverride and
// SetFragAuth bump resGen, instantly staling every entry. Creates never
// invalidate — they only add paths, and a cached path→directory mapping
// stays true when a sibling appears. The auth bumps are conservative (a
// label move never changes the path→node mapping) but keep the cache's
// lifetime rules identical to the subtree partition's, which makes
// reasoning about migration races trivial; migrations are heartbeat-rate
// events, so the cost is one cold walk per directory afterwards.
//
// Only slow-path successes populate the cache: the walk stores the
// directory holding the final component, keyed by the path's prefix, and
// the final node itself when it is a directory. A stored key is therefore
// a path the walk accepted and resolved to that directory, so "<key>/name"
// walks to the same directory and then probes name — exactly the fast
// path. The fast path refuses any split that could change validation
// semantics (empty, "." or ".." final components, doubled slashes) and
// falls back to the walk for every failure, so error text is identical.

// resolveCacheMax bounds the entry count; the map is dropped wholesale when
// full (a rank's directories are far fewer; an adversarial stream of
// distinct directories just round-robins the memory).
const resolveCacheMax = 1 << 16

type resolveEnt struct {
	dir *Node
	gen uint64
}

// cacheGet answers a directory path from the domain's cache, nil on miss or
// stale entry.
func (ns *Namespace) cacheGet(d *domain, path string) *Node {
	if e, ok := d.resCache[path]; ok && e.gen == ns.resGen.Load() {
		return e.dir
	}
	return nil
}

// cachePut records a directory the slow path walked to.
func (ns *Namespace) cachePut(d *domain, path string, dir *Node) {
	if len(d.resCache) >= resolveCacheMax {
		d.resCache = make(map[string]resolveEnt, resolveCacheMax/4)
	}
	d.resCache[path] = resolveEnt{dir: dir, gen: ns.resGen.Load()}
}

// invalidateResolves stales every domain's cached resolutions.
func (ns *Namespace) invalidateResolves() { ns.resGen.Add(1) }

// splitLast splits path into a directory prefix and final component for the
// cache fast path. ok is false whenever the split could diverge from
// SplitPath semantics (relative path, trailing or doubled slash, dot
// components); such paths take the slow path.
func splitLast(path string) (prefix, name string, ok bool) {
	i := strings.LastIndexByte(path, '/')
	if i < 0 || path[0] != '/' {
		return "", "", false
	}
	name = path[i+1:] // holds no slash: i is the last one
	if name == "" || name == "." || name == ".." {
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

// cacheResolve answers Resolve(path) as a cached directory plus one probe,
// nil when the slow path must run (miss, failure, or unsplittable path).
func (ns *Namespace) cacheResolve(d *domain, path string) *Node {
	dir, name, ok := ns.cacheResolveDir(d, path)
	if !ok {
		return nil
	}
	child, _ := dir.childGet(name)
	return child // nil: the slow path reports ErrNotExist
}

// cacheResolveDir answers ResolveDirOf(path) from the cache. Unlike
// cacheResolve, the final component need not exist — only its directory.
func (ns *Namespace) cacheResolveDir(d *domain, path string) (*Node, string, bool) {
	prefix, name, ok := splitLast(path)
	if !ok {
		return nil, "", false
	}
	if prefix == "" {
		return ns.root, name, true
	}
	dir := ns.cacheGet(d, prefix)
	if dir == nil {
		return nil, "", false
	}
	return dir, name, true
}

// cacheWalked records what a successful walk of path passed through: parent,
// the directory holding the final component, and the final node n when it
// is a directory (ResolveDirOf passes nil). Paths the fast path would not
// split are not recorded.
func (ns *Namespace) cacheWalked(d *domain, path string, parent, n *Node) {
	prefix, _, ok := splitLast(path)
	if !ok {
		return
	}
	if prefix != "" {
		ns.cachePut(d, prefix, parent)
	}
	if n != nil && n.IsDir() {
		ns.cachePut(d, path, n)
	}
}

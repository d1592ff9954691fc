// Package policies holds the built-in Mantle policies as the Lua files an
// operator injects, and embeds them so that the programs ship exactly these
// files: internal/core parses them once and serves them as its built-ins
// (core.Policies, mantle-policy show). Adding a built-in means adding a file.
//
// A file with a when hook is a balancer: cephfs_original.lua is Table 1,
// greedy_spill.lua, greedy_spill_even.lua, fill_and_spill.lua and
// adaptable.lua are Listings 1–4. elastic.lua and replicate.lua each hold
// the one hook of another decider; replicate.lua is the default
// when_replicate script.
//
// The listings differ from the paper's text only where the paper prints
// abbreviated pseudocode:
//   - array indexing is guarded, so the last rank does not index
//     MDSs[#MDSs+1] (Listings 1 and 3: whoami < #MDSs);
//   - Listing 2's half-way arithmetic gets an explicit math.floor, because
//     Lua division is floating point;
//   - Listing 2's idle-search comparison reads ["load"] explicitly;
//   - Listing 4's max accumulator is renamed biggest, so that it does not
//     shadow the max() helper of the Mantle environment.
//
// Fill & Spill's CPU threshold is 85 % where the paper's is 48 %: both come
// from the same capacity study, run on the paper's hardware and on this
// simulator's cost model (EXPERIMENTS.md, Figure 5).
package policies

import "embed"

// Files holds every *.lua file of this directory.
//
//go:embed *.lua
var Files embed.FS

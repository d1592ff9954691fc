// Package mds implements the metadata server: request processing over the
// shared namespace, dynamic subtree partitioning (subtree and dirfrag
// authority, directory fragmentation), heartbeat exchange, the balancer tick
// (send HB → recv HB → rebalance → fragment → migrate, Figure 2 of the
// paper), and two-phase-commit metadata migration with journaling to the
// object store and client session flushes.
//
// The MDS is pure mechanism: every balancing decision is delegated to a
// balancer.Balancer, which may be a Go-native policy or a Mantle Lua policy.
package mds

import (
	"fmt"

	"mantle/internal/namespace"
	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// OpType enumerates client metadata operations.
type OpType uint8

// Metadata operations.
const (
	OpCreate OpType = iota + 1
	OpMkdir
	OpGetattr
	OpLookup
	OpOpen
	OpReaddir
	OpUnlink
	OpRename
	OpSetattr
)

func (o OpType) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpMkdir:
		return "mkdir"
	case OpGetattr:
		return "getattr"
	case OpLookup:
		return "lookup"
	case OpOpen:
		return "open"
	case OpReaddir:
		return "readdir"
	case OpUnlink:
		return "unlink"
	case OpRename:
		return "rename"
	case OpSetattr:
		return "setattr"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Mutating reports whether the op writes metadata (journaled before reply).
func (o OpType) Mutating() bool {
	switch o {
	case OpCreate, OpMkdir, OpUnlink, OpRename, OpSetattr:
		return true
	}
	return false
}

// Request is a client metadata request.
type Request struct {
	// ID is unique per client.
	ID uint64
	// Client is the reply address.
	Client simnet.Addr
	// Op is the operation.
	Op OpType
	// Path is the target path.
	Path string
	// DstPath is the destination for renames.
	DstPath string
	// Hops counts forwards so far (loop guard + metric).
	Hops int
	// IssuedAt is when the client sent the request (for latency).
	IssuedAt sim.Time
	// TraceID threads the request through telemetry spans (client issue →
	// MDS queue → service → journal). Clients derive it deterministically
	// from (client ID, request ID).
	TraceID uint64

	// enqueuedAt marks arrival in the current MDS's queue; maintained only
	// when telemetry is enabled (queue-wait spans and histograms).
	enqueuedAt sim.Time

	// heldPaths lists the replica-registry write intents this request
	// holds while parked on a revoke. Carried on the request so a re-serve
	// after the revoke completes does not register them twice, and a
	// forward after an authority move releases them.
	heldPaths []string

	// viaReplica marks a read admitted through a local replica of a
	// directory this rank is not the authority for. Its counter charges
	// must defer through RecordOpRemote: the inline frag hit is reserved
	// for the single auth writer.
	viaReplica bool

	// reply is where the MDS answers: MDS.reply fills it and sends
	// &r.reply, so a reply allocates nothing. Sending it is the MDS's last
	// touch of the record (DESIGN.md §4, record ownership); the requester
	// may reuse the record once it has handled that reply.
	reply Reply
}

// Answer resets the reply carried in the record to {ReqID: r.ID, Err: err}
// and returns it for the answering side to complete and send. Sending it
// hands the record back to the requester, so the sender reads nothing of r
// afterwards.
func (r *Request) Answer(err string) *Reply {
	r.reply = Reply{ReqID: r.ID, Err: err}
	return &r.reply
}

// FragHint tells a client which rank owns one fragment of a directory.
type FragHint struct {
	Frag namespace.Frag
	Rank namespace.Rank
}

// Hint is routing knowledge piggybacked on replies: the authority for a
// directory, and — if the directory is fragmented across ranks — the
// per-fragment authorities. Clients build their subtree→MDS mapping from
// these, as CephFS clients do from replies.
type Hint struct {
	// DirPath is the directory the hint describes.
	DirPath string
	// Rank is the directory's authority.
	Rank namespace.Rank
	// Frags is non-nil only when fragments have split authority.
	Frags []FragHint
	// Replicas lists ranks holding read replicas of DirPath (replication
	// enabled only). nil clears any replica set the client learned
	// earlier — hints always carry the current truth. The slice is the
	// registry's published holder set, shared by every reply: read it,
	// store it or compare it, never write into it.
	Replicas []namespace.Rank
}

// Reply is the MDS response to a Request. The MDS answers inside the
// request record (Request.Answer); a Reply built by hand works the same.
type Reply struct {
	ReqID uint64
	// Err is a human-readable failure ("" = success).
	Err string
	// Served is the rank that executed the operation.
	Served namespace.Rank
	// Forwards is how many times the request was forwarded.
	Forwards int
	// Hints update the client's routing table.
	Hints []Hint

	// hint backs Hints for the common single-hint reply, so it costs no
	// allocation of its own.
	hint [1]Hint
}

// Heartbeat carries one MDS's metrics to its peers (the "send HB"/"recv HB"
// phases). Loads are the *metadata* loads; the receiver applies its own
// mdsload policy to scalarise them.
type Heartbeat struct {
	From  namespace.Rank
	Seq   uint64
	Auth  float64
	All   float64
	CPU   float64
	Mem   float64
	Queue float64
	Req   float64
	// Draining marks a rank that is leaving the cluster: peers must stop
	// selecting it as a migration target (mechanism, not policy — a
	// draining rank refuses imports anyway, but honouring the flag avoids
	// a wasted discover/nack round trip).
	Draining bool
}

// exportUnit identifies a migration unit: a whole directory subtree or a
// single dirfrag.
type exportUnit struct {
	dir    *namespace.Node
	frag   namespace.Frag
	isFrag bool
	load   float64
}

func (u exportUnit) path() string {
	if u.isFrag {
		return u.dir.Path() + "#" + u.frag.String()
	}
	return u.dir.Path()
}

// nodeCount estimates the inodes moved with the unit (payload size).
func (u exportUnit) nodeCount() int {
	if !u.isFrag {
		return u.dir.SubtreeNodes()
	}
	if fs, ok := u.dir.FragStateOf(u.frag); ok {
		return fs.Entries + 1
	}
	return 1
}

// Migration messages (two-phase commit, §2 "Migrate").
type (
	// exportDiscover asks the importer to prepare for a unit.
	exportDiscover struct {
		ExportID uint64
		From     namespace.Rank
		Path     string
		IsFrag   bool
		Frag     namespace.Frag
		Nodes    int
	}
	// exportPrep acks the discover after the importer journals.
	exportPrep struct {
		ExportID uint64
		From     namespace.Rank
	}
	// exportPayload carries the metadata (size modelled, not content).
	exportPayload struct {
		ExportID uint64
		From     namespace.Rank
	}
	// exportAck commits: the importer has journaled the import.
	exportAck struct {
		ExportID uint64
		From     namespace.Rank
	}
	// exportNack refuses a discover (the importer is draining out of the
	// cluster); the exporter aborts immediately instead of waiting out the
	// export timeout.
	exportNack struct {
		ExportID uint64
		From     namespace.Rank
	}
)

// Replication messages (read-replica coherence; see internal/replica).
type (
	// replicaGrant tells a peer it now holds a read replica of Path. The
	// registry entry was already created by the authority; the message
	// models the replica payload shipping.
	replicaGrant struct {
		Path string
		From namespace.Rank
	}
	// replicaRevoke asks a holder to stop serving Path from its replica
	// and ack once its pipeline is clear of replica reads.
	replicaRevoke struct {
		Path string
		From namespace.Rank
	}
	// replicaRevokeAck confirms the holder dropped the replica.
	replicaRevokeAck struct {
		Path string
		From namespace.Rank
	}
)

// SessionFlush stalls a client session during a migration commit (the
// scatter-gather coherence cost the paper measures via session counts).
type SessionFlush struct {
	From namespace.Rank
}

// Config holds the MDS cost model and balancing knobs.
type Config struct {
	// Service CPU times per op.
	CreateSvc  sim.Time
	MkdirSvc   sim.Time
	GetattrSvc sim.Time
	LookupSvc  sim.Time
	OpenSvc    sim.Time
	ReaddirSvc sim.Time // base; plus ReaddirPerEntry per dentry
	UnlinkSvc  sim.Time
	RenameSvc  sim.Time
	SetattrSvc sim.Time
	// ReaddirPerEntryNs adds per-dentry readdir cost, in nanoseconds
	// (sub-microsecond granularity matters for large directories).
	ReaddirPerEntryNs int
	// ReaddirMaxSvc caps a single readdir's service time.
	ReaddirMaxSvc sim.Time
	// ForwardSvc is the handling cost of forwarding a misdirected request.
	ForwardSvc sim.Time

	// JournalBytesPerOp sizes journal entries for mutating ops.
	JournalBytesPerOp int

	// HeartbeatInterval is the balancer tick period (10 s in CephFS).
	HeartbeatInterval sim.Time
	// RebalanceDelay is how long after sending heartbeats the balancer
	// evaluates its (stale) view of the cluster.
	RebalanceDelay sim.Time
	// CPUWindow is the utilisation measurement window.
	CPUWindow sim.Time
	// CPUNoise is the ±percent noise on instantaneous CPU samples
	// (§2.2.2: instantaneous measurements are "influenced by the
	// measurement tool").
	CPUNoise float64
	// LoadNoisePct perturbs the metadata loads an MDS reports in its
	// heartbeats by ±this percent — the measurement error that §2.2.2
	// blames for overly aggressive decisions ("the accuracy of the
	// decisions varies and reproducibility is difficult").
	LoadNoisePct float64
	// SvcJitterPct varies each request's service time by ±this percent
	// (cache misses, lock contention); queueing amplifies it under
	// overload, producing the latency/throughput variance growth the
	// paper measures.
	SvcJitterPct float64

	// HBAggregated switches heartbeat exchange from all-pairs (every rank
	// mails its heartbeat to every peer, O(ranks²) messages per interval)
	// to monitor-aggregated: the rank piggybacks its load vector on the
	// beacon it already sends the monitor, and folds the monitor's
	// aggregated LoadMap replies into hbData — O(ranks) messages per
	// interval. Requires a monitor (SetMonitor); without one the rank
	// falls back to all-pairs so a balancer never runs blind. Off by
	// default, and never set on the simulator path, so sim digests are
	// bit-identical.
	HBAggregated bool

	// SplitSize fragments a dirfrag past this many entries (50 000 in
	// the paper's shared-directory experiment).
	SplitSize int
	// SplitBits is how many bits a split adds (3 → 8 children).
	SplitBits uint8
	// MergeSize coalesces a sibling group of dirfrags back into their
	// parent fragment when their combined entries fall below this
	// (mds_bal_merge_size; 0 disables merging).
	MergeSize int

	// MinExportLoad is the smallest load worth migrating.
	MinExportLoad float64
	// MaxExportDepth bounds drill-down during namespace partitioning.
	MaxExportDepth int
	// OvershootFactor: a selection shipping more than this multiple of
	// the target drills down instead of exporting a too-big unit.
	OvershootFactor float64
	// MaxConcurrentExports bounds in-flight exports per MDS.
	MaxConcurrentExports int
	// ExportTimeout aborts a migration whose two-phase commit stalls
	// (importer crashed or partitioned), unfreezing the unit so requests
	// parked on it can proceed.
	ExportTimeout sim.Time

	// ExportFreezeOverhead is fixed CPU spent freezing/packing a unit,
	// plus ExportPerInode per inode moved.
	ExportFreezeOverhead sim.Time
	ExportPerInode       sim.Time
	// SessionFlushCost is exporter CPU per client session flushed.
	SessionFlushCost sim.Time
	// SharedDirPenaltyUS is the per-operation coherence cost, in
	// microseconds, of mutating a directory whose fragments are owned by
	// K ranks: (K-1)^2 * SharedDirPenaltyUS is added to the service
	// time. This models the fragstat/session scatter-gather that makes
	// over-distributed shared directories slow (Figures 7 and 8).
	SharedDirPenaltyUS int
	// CrossBoundPenaltyUS is the per-operation coherence cost of serving
	// a subtree-root directory whose parent lives on another rank:
	// prefix-path traversals, permission checks and recursive-stat
	// propagation reach across the bound (§2.1's "lower communication
	// for maintaining coherency" benefit of locality, inverted).
	CrossBoundPenaltyUS int
	// InodeBytes sizes the export payload for network/journal latency.
	InodeBytes int

	// CacheCapacity is the inode cache capacity backing the mem metric
	// and the dirfrag cache model: under memory pressure, serving a
	// dirfrag that has been cold for longer than CacheCoolTime pays
	// FetchSvc and counts a FETCH (the namespace "acts as a large
	// distributed cache; if larger than memory, parts can be swapped
	// out" — §2 of the paper). Table 1's metaload weights those fetches
	// and stores.
	CacheCapacity int
	// CacheCoolTime is how long a dirfrag stays warm after its last use.
	CacheCoolTime sim.Time
	// FetchSvc is the stall for fetching a cold dirfrag from the store.
	FetchSvc sim.Time

	// StateInRADOS persists WRstate/RDstate balancer state in the object
	// store instead of MDS memory (the §3.1 future-work item), so it
	// survives MDS restarts.
	StateInRADOS bool

	// Recovery cost model: replaying the journal after a crash takes
	// RecoverBase plus RecoverPerEntry per durable journal entry.
	RecoverBase     sim.Time
	RecoverPerEntry sim.Time

	// ReplicaRevokeTimeout force-completes a replica revoke whose holder
	// never acked (crashed or partitioned mid-revoke), so a mutation can
	// never wedge behind a dead holder. Only read when replication is
	// enabled.
	ReplicaRevokeTimeout sim.Time
}

// DefaultConfig returns the calibrated cost model. The constants are chosen
// so a single MDS saturates around 4-5 closed-loop create clients, matching
// the shape of Figure 5 (the paper's MDS handled ~4 clients): service cap
// 1/250 µs = 4000 creates/s against a ~870 creates/s per-client closed-loop
// rate.
func DefaultConfig() Config {
	return Config{
		CreateSvc:  290 * sim.Microsecond,
		MkdirSvc:   290 * sim.Microsecond,
		GetattrSvc: 60 * sim.Microsecond,
		LookupSvc:  60 * sim.Microsecond,
		OpenSvc:    80 * sim.Microsecond,
		ReaddirSvc: 300 * sim.Microsecond,
		UnlinkSvc:  150 * sim.Microsecond,
		RenameSvc:  250 * sim.Microsecond,
		SetattrSvc: 100 * sim.Microsecond,

		ReaddirPerEntryNs: 100,
		ReaddirMaxSvc:     5 * sim.Millisecond,
		ForwardSvc:        25 * sim.Microsecond,

		JournalBytesPerOp: 512,

		HeartbeatInterval: 10 * sim.Second,
		RebalanceDelay:    1 * sim.Second,
		CPUWindow:         1 * sim.Second,
		CPUNoise:          6,
		LoadNoisePct:      5,
		SvcJitterPct:      25,

		SplitSize: 50_000,
		SplitBits: 3,
		MergeSize: 50,

		MinExportLoad:        0.1,
		MaxExportDepth:       8,
		OvershootFactor:      1.5,
		MaxConcurrentExports: 4,
		ExportTimeout:        30 * sim.Second,

		SharedDirPenaltyUS:  40,
		CrossBoundPenaltyUS: 75,

		ExportFreezeOverhead: 2 * sim.Millisecond,
		ExportPerInode:       2 * sim.Microsecond,
		SessionFlushCost:     500 * sim.Microsecond,
		InodeBytes:           400,

		CacheCapacity: 400_000,
		CacheCoolTime: 60 * sim.Second,
		FetchSvc:      800 * sim.Microsecond,

		RecoverBase:     2 * sim.Second,
		RecoverPerEntry: 5 * sim.Microsecond,

		ReplicaRevokeTimeout: 2 * sim.Second,
	}
}

// Counters tracks per-MDS observability counters.
type Counters struct {
	Served          uint64 // requests executed here
	Hits            uint64 // requests that arrived at the right MDS
	Forwards        uint64 // requests forwarded away
	Deferred        uint64 // requests parked on frozen subtrees
	Errors          uint64 // requests that failed
	Exports         uint64 // migration units exported
	ExportAborts    uint64 // migrations abandoned on timeout
	Imports         uint64 // migration units imported
	ImportAborts    uint64 // half-received imports rolled back
	InodesMoved     uint64 // inodes migrated away
	SessionsSent    uint64 // session flush messages sent
	Splits          uint64 // dirfrag splits performed
	Merges          uint64 // dirfrag merges performed
	Fetches         uint64 // cold dirfrags fetched under cache pressure
	HBsSent         uint64
	HBsRecv         uint64
	PolicyErrors    uint64 // balancer hook failures
	PolicyFallbacks uint64 // balancer versions demoted to last-known-good
	Crashes         uint64 // simulated failures injected
	Recoveries      uint64 // journal replays completed
	DrainExports    uint64 // units exported while draining out of the cluster
	ImportRefusals  uint64 // discovers nacked because this rank was draining
	StaleRejects    uint64 // namespace writes refused: the daemon's epoch was superseded
	SelfFences      uint64 // daemon discovered it was replaced and fenced itself
	LoadMapsRecv    uint64 // aggregated load maps folded into hbData (HBAggregated mode)

	// Replication counters (all zero unless replication is enabled).
	ReplicaReads          uint64 // reads served from a local replica instead of forwarding
	ReplicaGrants         uint64 // replicas this rank granted to peers
	ReplicaRevokes        uint64 // revoke messages this rank sent
	ReplicaRevokeAcks     uint64 // revokes this rank acked as a holder
	ReplicaWriteStalls    uint64 // mutations parked waiting for a revoke round
	ReplicaWriteConflicts uint64 // invariant violations: a write applied with live holders
	ReplicaForcedRevokes  uint64 // revokes completed by timeout instead of acks
}

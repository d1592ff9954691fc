package mantle

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"mantle/internal/balancer"
	"mantle/internal/client"
	"mantle/internal/cluster"
	"mantle/internal/core"
	"mantle/internal/live"
	"mantle/internal/lua"
	"mantle/internal/mds"
	"mantle/internal/namespace"
	"mantle/internal/rados"
	"mantle/internal/replica"
	"mantle/internal/sim"
	"mantle/internal/simnet"
	"mantle/internal/stats"
	"mantle/internal/telemetry"
	"mantle/internal/workload"
)

// The benchmark contract. benchmark/ is a nested module that compiles
// against mantle/internal/..., so tier-1 `go test ./...` never builds it: an
// API change that breaks it would otherwise surface only when the benchmark
// next runs. This file names every identifier benchmark/ uses, with the
// signature it uses, so that a change to one fails here first.
//
// Load-bearing signatures, the ones past changes have broken first:
//   - (*sim.WheelTimer).CancelTimer()
//   - (*rados.Journal).Append(rados.EntryKind, int, func())
//   - mds.Reply{} built empty and sent repeatedly, (*mds.MDS).HandleMessage
//   - workload.SliceGen{Ops}, built directly and type-asserted out of
//     workload.Compile
//   - balancer.Balancer's exact method set
//   - every mds.Config field named *Svc is a sim.Time service time: the
//     benchmark's floorModel sets them by name pattern through reflection.
//
// Changing one of them is its own change: move the product API and
// benchmark/ together, in a change that claims no gain, and re-baseline the
// benchmark by A/A runs.

// Functions, function types and methods outside the engine, namespace,
// registry and balancer.
var (
	_ func([]string, []balancer.FragCandidate, float64) ([]int, float64, string, error) = balancer.ChooseFrags
	_ func(int, int64) cluster.Config                                                   = cluster.DefaultConfig
	_ func(core.Policy) cluster.BalancerFactory                                         = cluster.LuaBalancers
	_ func(cluster.Config, cluster.BalancerFactory) (*cluster.Cluster, error)           = cluster.New
	_ func() core.Policy                                                                = core.AdaptablePolicy
	_ func() core.Policy                                                                = core.GreedySpillPolicy
	_ func(core.Policy, core.Options) (*core.LuaBalancer, error)                        = core.NewLuaBalancer
	_ func(int, int64) live.Config                                                      = live.DefaultConfig
	_ func(live.Config) (*live.Runtime, error)                                          = live.New
	_ func(string, string) (*lua.Chunk, error)                                          = lua.Compile
	_ func() *lua.VM                                                                    = lua.NewVM
	_ func() mds.Config                                                                 = mds.DefaultConfig
	_ func(namespace.Rank, simnet.Addr, sim.Clock, simnet.Transport, *namespace.Namespace,
		*rados.Pool, mds.Config, balancer.Balancer, []simnet.Addr) *mds.MDS = mds.New
	_ func(sim.Time) *namespace.Namespace                                           = namespace.New
	_ func() rados.Config                                                           = rados.DefaultConfig
	_ func(sim.Clock, rados.Config) *rados.Cluster                                  = rados.NewCluster
	_ func(*rados.Pool, string, int) *rados.Journal                                 = rados.NewJournal
	_ func() *replica.Registry                                                      = replica.NewRegistry
	_ func(int64) *sim.Engine                                                       = sim.NewEngine
	_ func(time.Duration, int) *sim.Wheel                                           = sim.NewWheel
	_ func() simnet.Config                                                          = simnet.DefaultConfig
	_ func(*sim.Engine, simnet.Config) *simnet.Network                              = simnet.New
	_ func(workload.CompileConfig) workload.Generator                               = workload.Compile
	_ func(namespace.Rank) (balancer.Balancer, error)                               = live.BalancerFactory(nil)
	_ func(from simnet.Addr, msg simnet.Message)                                    = simnet.HandlerFunc(nil)
	_ func(*workload.SliceGen) (workload.Op, bool)                                  = (*workload.SliceGen).Next
	_ func(workload.Generator) (workload.Op, bool)                                  = workload.Generator.Next
	_ func(*cluster.Cluster, workload.Generator) *client.Client                     = (*cluster.Cluster).AddClient
	_ func(*cluster.Cluster, string, string, int) error                             = (*cluster.Cluster).PrePopulateTree
	_ func(*cluster.Cluster, sim.Time) *cluster.Result                              = (*cluster.Cluster).Run
	_ func(*live.Runtime) (*live.Report, error)                                     = (*live.Runtime).Run
	_ func(*lua.VM, *lua.Chunk) ([]lua.Value, error)                                = (*lua.VM).Run
	_ func(*mds.MDS, simnet.Addr, simnet.Message)                                   = (*mds.MDS).HandleMessage
	_ func(mds.OpType) bool                                                         = mds.OpType.Mutating
	_ func(namespace.CounterSnapshot) float64                                       = namespace.CounterSnapshot.CephLoad
	_ func(*namespace.Node, func(*namespace.Node) bool)                             = (*namespace.Node).Children
	_ func(*namespace.View, *namespace.Node, string, bool) (*namespace.Node, error) = (*namespace.View).Create
	_ func(*rados.Cluster, string, string) []int                                    = (*rados.Cluster).PlaceOSDs
	_ func(*rados.Cluster, string) *rados.Pool                                      = (*rados.Cluster).Pool
	_ func(*rados.Journal, rados.EntryKind, int, func())                            = (*rados.Journal).Append
	_ func(balancer.Targets) float64                                                = balancer.Targets.TotalTarget
	_ func(*stats.Sample, float64)                                                  = (*stats.Sample).Add
	_ func(*stats.Sample) int                                                       = (*stats.Sample).N
	_ func(*stats.Sample, float64) float64                                          = (*stats.Sample).Percentile
	_ func(*telemetry.Histogram) float64                                            = (*telemetry.Histogram).Max
	_ func(*telemetry.Histogram) uint64                                             = (*telemetry.Histogram).N
	_ func(*telemetry.Histogram, float64) float64                                   = (*telemetry.Histogram).Percentile
	_ func(*telemetry.ShardedHistogram, float64)                                    = (*telemetry.ShardedHistogram).Observe
)

// The event engine, the timing wheel and the simulated network.
var (
	_ sim.Clock                                                       = (*sim.Engine)(nil)
	_ func(*sim.Engine, sim.Time, sim.Time, func()) *sim.Ticker       = (*sim.Engine).NewTicker
	_ func(*sim.Engine) sim.Time                                      = (*sim.Engine).Now
	_ func(*sim.Engine) int                                           = (*sim.Engine).Pending
	_ func(*sim.Engine, sim.Time)                                     = (*sim.Engine).Run
	_ func(*sim.Engine)                                               = (*sim.Engine).RunUntilIdle
	_ func(*sim.Engine, sim.Time, func()) sim.Event                   = (*sim.Engine).Schedule
	_ func(*sim.Ticker)                                               = (*sim.Ticker).Stop
	_ func(*sim.Wheel, time.Duration, func()) *sim.WheelTimer         = (*sim.Wheel).Schedule
	_ func(*sim.Wheel)                                                = (*sim.Wheel).Stop
	_ func(*sim.WheelTimer)                                           = (*sim.WheelTimer).CancelTimer
	_ func(*simnet.Network, simnet.Addr, simnet.Handler)              = (*simnet.Network).Register
	_ func(*simnet.Network, simnet.Addr, simnet.Addr, simnet.Message) = (*simnet.Network).Send
)

// The namespace, the replica registry and the Lua balancer.
var (
	_ func(*namespace.Namespace, *namespace.Node, string) namespace.Rank                           = (*namespace.Namespace).AuthForDentry
	_ func(*namespace.Namespace, int, sim.Time, func(namespace.CounterSnapshot) float64) []float64 = (*namespace.Namespace).AuthLoad
	_ func(*namespace.Namespace, *namespace.Node, string, bool) (*namespace.Node, error)           = (*namespace.Namespace).Create
	_ func(*namespace.Namespace, string, bool) (*namespace.Node, error)                            = (*namespace.Namespace).CreatePath
	_ func(*namespace.Namespace, int)                                                              = (*namespace.Namespace).EnableSharding
	_ func(*namespace.Namespace)                                                                   = (*namespace.Namespace).FlushCounters
	_ func(*namespace.Namespace, *namespace.Node, string, namespace.OpKind, sim.Time)              = (*namespace.Namespace).RecordOp
	_ func(*namespace.Namespace, string) (*namespace.Node, error)                                  = (*namespace.Namespace).Resolve
	_ func(*namespace.Namespace, string) (*namespace.Node, string, error)                          = (*namespace.Namespace).ResolveDirOf
	_ func(*namespace.Namespace, *namespace.Node, namespace.Rank)                                  = (*namespace.Namespace).SetAuthOverride
	_ func(*namespace.Namespace, int) *namespace.View                                              = (*namespace.Namespace).View
	_ func(*replica.Registry, string, namespace.Rank)                                              = (*replica.Registry).Ack
	_ func(*replica.Registry, string, namespace.Rank, func()) ([]namespace.Rank, bool)             = (*replica.Registry).BeginWrite
	_ func(*replica.Registry, string, namespace.Rank)                                              = (*replica.Registry).EndWrite
	_ func(*replica.Registry, string, namespace.Rank) bool                                         = (*replica.Registry).Grant
	_ func(*core.LuaBalancer, *balancer.Env) ([]string, error)                                     = (*core.LuaBalancer).HowMuch
	_ func(*core.LuaBalancer, namespace.Rank, *balancer.Env) (float64, error)                      = (*core.LuaBalancer).MDSLoad
	_ func(*core.LuaBalancer, namespace.CounterSnapshot) (float64, error)                          = (*core.LuaBalancer).MetaLoad
	_ func(*core.LuaBalancer, *balancer.Env) (bool, error)                                         = (*core.LuaBalancer).When
	_ func(*core.LuaBalancer, *balancer.Env) (balancer.Targets, error)                             = (*core.LuaBalancer).Where
)

// benchBalancer is balancer.Balancer's method set as benchmark/ relies on
// it. Assigning both ways pins it exactly: a method added to or removed
// from the interface fails one of the two.
type benchBalancer interface {
	MetaLoad(namespace.CounterSnapshot) (float64, error)
	MDSLoad(namespace.Rank, *balancer.Env) (float64, error)
	When(*balancer.Env) (bool, error)
	Where(*balancer.Env) (balancer.Targets, error)
	HowMuch(*balancer.Env) ([]string, error)
	Name() string
}

var (
	_ benchBalancer       = balancer.Balancer(nil)
	_ balancer.Balancer   = benchBalancer(nil)
	_ balancer.Balancer   = balancer.NoBalancer{}
	_ balancer.Balancer   = (*core.LuaBalancer)(nil)
	_ balancer.StateStore = &balancer.MemState{}
)

// Constants, and a type used by its zero value.
var (
	_ mds.OpType       = mds.OpCreate
	_ mds.OpType       = mds.OpGetattr
	_ mds.OpType       = mds.OpMkdir
	_ mds.OpType       = mds.OpReaddir
	_ namespace.OpKind = namespace.OpIRD
	_ namespace.OpKind = namespace.OpIWR
	_ namespace.OpKind = namespace.OpReaddir
	_ rados.EntryKind  = rados.EntryUpdate
	_ sim.Time         = sim.Microsecond
	_ sim.Time         = sim.Millisecond
	_ sim.Time         = sim.Second
	_ sim.Time         = sim.Minute
	_ telemetry.ShardedHistogram
)

// TestBenchmarkContract builds the literals and reads the fields benchmark/
// uses, with their types, and checks the name pattern floorModel reflects
// over.
func TestBenchmarkContract(t *testing.T) {
	_ = mds.Reply{}
	_ = mds.Request{ID: uint64(0), Client: simnet.Addr(0), Op: mds.OpType(0), Path: ""}
	_ = workload.Op{Type: mds.OpType(0), Path: ""}
	_ = workload.SliceGen{Ops: []workload.Op(nil)}
	_ = workload.CompileConfig{Root: "", FilesPerDir: int(0), HeaderFiles: int(0), Seed: int64(0)}
	_ = balancer.FragCandidate{ID: int(0), Load: float64(0)}
	_ = balancer.MDSMetrics{Auth: float64(0), All: float64(0), CPU: float64(0), Mem: float64(0),
		Queue: float64(0), Req: float64(0)}
	_ = balancer.Env{WhoAmI: namespace.Rank(0), State: balancer.StateStore(nil)}
	_ = namespace.CounterSnapshot{IRD: float64(0), IWR: float64(0), Readdir: float64(0)}
	_ = live.LoadConfig{Clients: int(0), Dirs: int(0), Duration: time.Duration(0),
		OpTimeout: time.Duration(0), Seed: int64(0), Workers: int(0)}

	var (
		env  balancer.Env
		met  balancer.MDSMetrics
		res  cluster.Result
		ccfg cluster.Config
		lcfg live.Config
		rep  live.Report
		mc   mds.Counters
		ply  mds.Reply
		reg  replica.Registry
		sg   workload.SliceGen
		op   workload.Op
	)
	var (
		_ float64                      = env.AllMetaLoad
		_ float64                      = env.AuthMetaLoad
		_ []balancer.MDSMetrics        = env.MDSs
		_ float64                      = env.Total
		_ float64                      = met.All
		_ float64                      = met.Auth
		_ float64                      = met.Load
		_ bool                         = res.AllDone
		_ []int                        = res.ClientErrors
		_ []int                        = res.ClientForwards
		_ []mds.Counters               = res.MDSCounters
		_ uint64                       = res.TotalExports
		_ int                          = res.TotalFlushes
		_ int                          = res.TotalGaveUp
		_ int                          = res.TotalOps
		_ mds.Config                   = ccfg.MDS
		_ int                          = lcfg.AdmitQueue
		_ time.Duration                = lcfg.DrainTimeout
		_ live.BalancerFactory         = lcfg.Factory
		_ live.LoadConfig              = lcfg.Load
		_ mds.Config                   = lcfg.MDS
		_ int                          = lcfg.MailboxDepth
		_ simnet.Config                = lcfg.Net
		_ rados.Config                 = lcfg.Rados
		_ string                       = lcfg.ReplicaPolicy
		_ bool                         = lcfg.Replication
		_ int                          = lcfg.Load.Dirs
		_ time.Duration                = lcfg.Load.Duration
		_ bool                         = lcfg.Load.HotDir
		_ int                          = lcfg.Load.HotFiles
		_ float64                      = lcfg.Load.HotFrac
		_ float64                      = lcfg.Load.Rate
		_ int64                        = lcfg.Load.Seed
		_ float64                      = lcfg.Load.WriteRatio
		_ int                          = lcfg.MDS.CacheCapacity
		_ int                          = lcfg.MDS.CrossBoundPenaltyUS
		_ sim.Time                     = lcfg.MDS.HeartbeatInterval
		_ int                          = lcfg.MDS.ReaddirPerEntryNs
		_ sim.Time                     = lcfg.MDS.RebalanceDelay
		_ int                          = lcfg.MDS.SharedDirPenaltyUS
		_ float64                      = lcfg.MDS.SvcJitterPct
		_ int                          = lcfg.Rados.BytePerUS
		_ sim.Time                     = lcfg.Rados.Jitter
		_ sim.Time                     = lcfg.Rados.ReadLatency
		_ sim.Time                     = lcfg.Rados.WriteLatency
		_ sim.Time                     = lcfg.Net.Jitter
		_ sim.Time                     = lcfg.Net.Latency
		_ uint64                       = rep.Coalesced
		_ uint64                       = rep.Completed
		_ time.Duration                = rep.Duration
		_ uint64                       = rep.Errors
		_ uint64                       = rep.Exports
		_ uint64                       = rep.Flushes
		_ uint64                       = rep.Forwards
		_ float64                      = rep.HBPerInterval
		_ uint64                       = rep.InodesMoved
		_ string                       = rep.InvariantViolation
		_ uint64                       = rep.Issued
		_ *telemetry.Histogram         = rep.Latency
		_ float64                      = rep.Mean
		_ float64                      = rep.P50
		_ float64                      = rep.P95
		_ float64                      = rep.P99
		_ []mds.Counters               = rep.PerRank
		_ uint64                       = rep.ReplicaGrants
		_ float64                      = rep.ReplicaHitRate
		_ uint64                       = rep.ReplicaRevokes
		_ uint64                       = rep.ReplicaRouted
		_ uint64                       = rep.ReplicaWriteConflicts
		_ uint64                       = rep.ReplicaWriteStalls
		_ float64                      = rep.RevokeMeanMs
		_ uint64                       = rep.Sent
		_ uint64                       = rep.Sheds
		_ uint64                       = rep.Timeouts
		_ uint64                       = mc.Deferred
		_ uint64                       = mc.Exports
		_ uint64                       = mc.Forwards
		_ uint64                       = mc.Hits
		_ uint64                       = mc.Splits
		_ string                       = ply.Err
		_ func(namespace.Rank, func()) = reg.Dispatch
		_ []workload.Op                = sg.Ops
		_ string                       = op.Path
		_ mds.OpType                   = op.Type
	)
	var gen workload.Generator = &workload.SliceGen{}
	if _, ok := gen.(*workload.SliceGen); !ok {
		t.Fatal("*workload.SliceGen is not a workload.Generator")
	}

	// floorModel sets every mds.Config field whose name ends in Svc to 1 µs
	// with reflect.Value.SetInt, and its own test wants at least ten.
	cfg := reflect.TypeOf(mds.Config{})
	svc := 0
	for i := 0; i < cfg.NumField(); i++ {
		f := cfg.Field(i)
		if !strings.HasSuffix(f.Name, "Svc") {
			continue
		}
		svc++
		if f.Type != reflect.TypeOf(sim.Time(0)) {
			t.Errorf("mds.Config.%s is %v; the benchmark sets *Svc fields as sim.Time", f.Name, f.Type)
		}
	}
	if svc < 10 {
		t.Errorf("mds.Config has %d *Svc fields; the benchmark's floorModel expects the cost model's ten or more", svc)
	}
}

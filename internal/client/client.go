// Package client implements closed-loop metadata clients: each client keeps
// one request outstanding, learns the subtree→MDS mapping from reply hints
// (as CephFS clients build their mapping from responses), hashes dentry
// names into fragment maps for directories whose dirfrags are split across
// ranks, and absorbs session-flush stalls during migrations.
package client

import (
	"mantle/internal/mds"
	"mantle/internal/namespace"
	"mantle/internal/sim"
	"mantle/internal/simnet"
	"mantle/internal/stats"
	"mantle/internal/telemetry"
	"mantle/internal/workload"
)

// Config tunes client behaviour.
type Config struct {
	// ThinkTime is the delay between receiving a reply and issuing the
	// next operation.
	ThinkTime sim.Time
	// FlushStall is how long a session flush blocks the next issue.
	FlushStall sim.Time
	// MaxRetries re-issues an op that failed with a transient error.
	MaxRetries int
	// RequestTimeout re-sends an operation whose reply never arrives
	// (MDS crash or partition). After two consecutive timeouts the
	// client drops its routing cache and starts over from rank 0.
	RequestTimeout sim.Time
	// RetryBudget bounds consecutive timeouts for one operation; past it
	// the op is abandoned (counted in GaveUp and Errors) and the workload
	// moves on, so a dead cluster region fails ops cleanly instead of
	// hanging the client forever. 0 = retry without bound (the historical
	// behaviour).
	RetryBudget int
	// BackoffBase enables exponential backoff between timeout retries:
	// the k-th consecutive retry waits BackoffBase*2^(k-1), capped at
	// BackoffMax, plus deterministic jitter of ±25%. 0 = immediate resend
	// (the historical behaviour).
	BackoffBase sim.Time
	// BackoffMax caps the exponential backoff delay (0 = 64*BackoffBase).
	BackoffMax sim.Time
	// StartJitter delays the client's first operation by a uniformly
	// random amount in [0, StartJitter] — real clients never launch in
	// perfect lockstep, and the skew is what makes balancer runs diverge
	// (Figure 4).
	StartJitter sim.Time
}

// DefaultConfig returns standard client behaviour.
func DefaultConfig() Config {
	return Config{
		ThinkTime:      25 * sim.Microsecond,
		FlushStall:     2 * sim.Millisecond,
		MaxRetries:     0,
		RequestTimeout: 10 * sim.Second,
	}
}

// Client is one closed-loop workload driver.
type Client struct {
	ID     int
	addr   simnet.Addr
	engine *sim.Engine
	net    *simnet.Network
	cfg    Config
	gen    workload.Generator
	mdss   []simnet.Addr // MDS address by rank

	routes *mds.Routes

	nextID      uint64
	inflightID  uint64
	inflightAt  sim.Time
	inflightOp  workload.Op
	retries     int
	timeoutsRow int
	timeoutEv   sim.Event
	// timeoutID is the request the armed timeout belongs to. One field
	// suffices: every path into send runs after the previous timeout fired
	// or was cancelled, so at most one is armed at a time.
	timeoutID uint64
	// req is the record of the in-flight op. The MDS answers inside it, so
	// once that answer has been handled (reqDone) the next send re-issues
	// from the same record. A record whose reply may still come, because
	// it timed out and was re-sent, is left to the GC and never reused.
	req        *mds.Request
	reqDone    bool
	backoffEv  sim.Event
	flushUntil sim.Time
	done       bool

	// Method values bound once: passing c.issueNext to Schedule would
	// allocate one per call.
	issueNextFn func()
	timeoutFn   func()

	// Stats.
	Completed      int
	Errors         int
	Timeouts       int
	GaveUp         int // ops abandoned after the retry budget ran out
	ForwardedOps   int // ops that took at least one forward
	TotalForwards  int
	SessionFlushes int
	Latency        stats.Sample
	DoneAt         sim.Time
	ServedBy       map[namespace.Rank]int

	// OnDone fires when the generator is exhausted.
	OnDone func(c *Client)
	// OnComplete fires per completed op (cluster metrics hook).
	OnComplete func(c *Client, op workload.Op, served namespace.Rank, lat sim.Time)

	// Telemetry (nil = disabled).
	tel      *telemetry.Telemetry
	hLatency *telemetry.Histogram
	hHops    *telemetry.Histogram
	cFlushes *telemetry.Counter
	cOps     *telemetry.Counter
}

// SetTelemetry attaches a telemetry sink. Client metrics are keyed by client
// ID so per-client tails are visible; span emission threads the TraceID the
// MDS echoes through forwards and journal writes.
func (c *Client) SetTelemetry(t *telemetry.Telemetry) {
	c.tel = t
	if t == nil {
		return
	}
	c.hLatency = t.Reg.Histogram("client.latency_us", c.ID)
	c.hHops = t.Reg.Histogram("client.req_hops", c.ID)
	c.cFlushes = t.Reg.Counter("client.session_flushes", c.ID)
	c.cOps = t.Reg.Counter("client.ops", c.ID)
}

// New registers a client on the network. mdss maps rank→address.
func New(id int, addr simnet.Addr, engine *sim.Engine, net *simnet.Network,
	cfg Config, gen workload.Generator, mdss []simnet.Addr) *Client {
	c := &Client{
		ID:       id,
		addr:     addr,
		engine:   engine,
		net:      net,
		cfg:      cfg,
		gen:      gen,
		mdss:     mdss,
		routes:   mds.NewRoutes(),
		ServedBy: map[namespace.Rank]int{},
	}
	c.issueNextFn = c.issueNext
	c.timeoutFn = func() { c.onTimeout(c.timeoutID) }
	net.Register(addr, c)
	return c
}

// Addr reports the client's network address.
func (c *Client) Addr() simnet.Addr { return c.addr }

// Done reports whether the workload is exhausted.
func (c *Client) Done() bool { return c.done }

// Start issues the first operation after the configured start jitter.
func (c *Client) Start() {
	if c.cfg.StartJitter > 0 {
		c.engine.Schedule(sim.Time(c.engine.Rand().Int63n(int64(c.cfg.StartJitter)+1)), c.issueNextFn)
		return
	}
	c.issueNext()
}

// clampRank maps a learned rank with no address (a stale hint) to rank 0.
func (c *Client) clampRank(r namespace.Rank) namespace.Rank {
	if int(r) >= len(c.mdss) || r < 0 {
		return 0
	}
	return r
}

func (c *Client) issueNext() {
	if c.done {
		return
	}
	now := c.engine.Now()
	if now < c.flushUntil {
		c.engine.Schedule(c.flushUntil-now, c.issueNextFn)
		return
	}
	op, ok := c.gen.Next()
	if !ok {
		c.done = true
		c.DoneAt = now
		if c.OnDone != nil {
			c.OnDone(c)
		}
		return
	}
	c.send(op)
}

func (c *Client) send(op workload.Op) {
	c.nextID++
	c.inflightID = c.nextID
	c.inflightAt = c.engine.Now()
	c.inflightOp = op
	path := op.Src()
	rank := c.clampRank(c.routes.Route(path))
	if c.req == nil || !c.reqDone {
		c.req = new(mds.Request)
	}
	c.reqDone = false
	req := c.req
	*req = mds.Request{
		ID:       c.inflightID,
		Client:   c.addr,
		Op:       op.Type,
		Path:     path,
		DstPath:  op.Dst(),
		IssuedAt: c.inflightAt,
	}
	if c.tel != nil {
		req.TraceID = uint64(c.ID)<<32 | c.inflightID
	}
	if c.cfg.RequestTimeout > 0 {
		c.timeoutID = c.inflightID
		c.timeoutEv = c.engine.Schedule(c.cfg.RequestTimeout, c.timeoutFn)
	}
	c.net.Send(c.addr, c.mdss[rank], req)
}

// onTimeout re-sends an operation the cluster never answered. Two
// consecutive timeouts mean the client's routing knowledge points at a dead
// or unreachable MDS, so it is discarded (a fresh mount's view). With a
// retry budget the op is eventually abandoned; with backoff enabled the
// resends spread out exponentially so a recovering cluster is not stampeded
// by every client retrying in lockstep.
func (c *Client) onTimeout(id uint64) {
	if c.done || id != c.inflightID {
		return
	}
	c.Timeouts++
	c.timeoutsRow++
	if c.timeoutsRow >= 2 {
		c.ResetRouting()
	}
	if c.cfg.RetryBudget > 0 && c.timeoutsRow > c.cfg.RetryBudget {
		// Fail the op cleanly and move on.
		c.GaveUp++
		c.Errors++
		c.timeoutsRow = 0
		c.inflightID = 0
		c.issueNext()
		return
	}
	if c.cfg.BackoffBase > 0 {
		delay := c.backoffDelay()
		c.backoffEv = c.engine.Schedule(delay, func() {
			if c.done || id != c.inflightID {
				return
			}
			c.send(c.inflightOp)
		})
		return
	}
	c.send(c.inflightOp)
}

// backoffDelay computes the current retry's wait: exponential in the
// consecutive-timeout count, capped, with deterministic ±25% jitter drawn
// from the engine RNG so same-seed runs back off identically.
func (c *Client) backoffDelay() sim.Time {
	limit := c.cfg.BackoffMax
	if limit <= 0 {
		limit = 64 * c.cfg.BackoffBase
	}
	delay := c.cfg.BackoffBase
	for i := 1; i < c.timeoutsRow && delay < limit; i++ {
		delay *= 2
	}
	if delay > limit {
		delay = limit
	}
	delay += c.engine.Jitter(delay / 4)
	if delay < 0 {
		delay = 0
	}
	return delay
}

// HandleMessage implements simnet.Handler.
func (c *Client) HandleMessage(from simnet.Addr, msg simnet.Message) {
	switch v := msg.(type) {
	case *mds.Reply:
		c.handleReply(v)
	case *mds.SessionFlush:
		c.SessionFlushes++
		if c.tel != nil {
			c.cFlushes.Add(1)
			if c.tel.Tracer != nil {
				c.tel.Tracer.Instant(telemetry.PIDClients, c.ID, "session",
					"session flush", c.engine.Now(),
					telemetry.Arg{Key: "from", Val: int64(v.From)})
			}
		}
		until := c.engine.Now() + c.cfg.FlushStall
		if until > c.flushUntil {
			c.flushUntil = until
		}
	}
}

func (c *Client) handleReply(rep *mds.Reply) {
	if rep.ReqID != c.inflightID {
		return // stale duplicate (or a reply that lost to its timeout)
	}
	// The in-flight record has been answered, so the next send may reuse
	// it; until then rep (which lives in it) stays readable.
	c.reqDone = true
	c.engine.Cancel(c.timeoutEv)
	c.engine.Cancel(c.backoffEv)
	c.timeoutsRow = 0
	for _, h := range rep.Hints {
		if !c.routes.Knows(h) {
			c.routes.Learn(h)
		}
	}
	lat := c.engine.Now() - c.inflightAt
	if rep.Err != "" {
		c.Errors++
		if c.retries < c.cfg.MaxRetries {
			c.retries++
			op := c.inflightOp
			c.engine.Schedule(c.cfg.ThinkTime, func() { c.send(op) })
			return
		}
	} else {
		c.Completed++
		c.Latency.Add(lat.Millis())
		c.ServedBy[rep.Served]++
		if rep.Forwards > 0 {
			c.ForwardedOps++
			c.TotalForwards += rep.Forwards
		}
		if c.tel != nil {
			c.cOps.Add(1)
			c.hLatency.Observe(float64(lat))
			c.hHops.Observe(float64(rep.Forwards))
			if c.tel.Tracer != nil {
				c.tel.Tracer.Complete(telemetry.PIDClients, c.ID, "op",
					c.inflightOp.Type.String()+" "+c.inflightOp.Src(),
					c.inflightAt, lat,
					telemetry.Arg{Key: "trace", Val: uint64(c.ID)<<32 | rep.ReqID},
					telemetry.Arg{Key: "served", Val: int64(rep.Served)},
					telemetry.Arg{Key: "forwards", Val: int64(rep.Forwards)})
			}
		}
		if c.OnComplete != nil {
			c.OnComplete(c, c.inflightOp, rep.Served, lat)
		}
	}
	c.retries = 0
	if c.cfg.ThinkTime > 0 {
		c.engine.Schedule(c.cfg.ThinkTime, c.issueNextFn)
	} else {
		c.issueNext()
	}
}

// KnownSubtrees reports how many routing entries the client holds.
func (c *Client) KnownSubtrees() int { return c.routes.Len() }

// ResetRouting clears learned hints (a fresh mount between phases).
func (c *Client) ResetRouting() { c.routes = mds.NewRoutes() }

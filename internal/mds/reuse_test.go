package mds

import (
	"fmt"
	"strings"
	"testing"

	"mantle/internal/sim"
	"mantle/internal/simnet"
)

// Request-record reuse on the MDS side. A requester may re-issue from a
// record as soon as it has handled the record's reply (DESIGN.md §4), so the
// reply must be the MDS's last touch on every path that answers. The
// recycler below keeps that rule as tightly as it can: when a reply lands it
// poisons the record and, if its script has ops left, re-issues the next one
// from it in the same event. A rank that still held the record after
// answering would serve the poison, or the next op twice, and the reply log
// would differ from the one recorded for each scenario.

// poisonPath is what a recycled record carries between its reply and its
// next issue.
const poisonPath = "/poison"

type recycler struct {
	h      *harness
	held   map[uint64]*Request // sent and not yet answered
	free   []*Request
	script []Request // ops still to issue, in order
	log    []string
}

func newRecycler(h *harness) *recycler {
	rc := &recycler{h: h, held: map[uint64]*Request{}}
	h.net.Unregister(h.client)
	h.net.Register(h.client, simnet.HandlerFunc(func(_ simnet.Addr, msg simnet.Message) {
		switch v := msg.(type) {
		case *Reply:
			rc.answered(v)
		case *SessionFlush:
			h.flushes++
		}
	}))
	return rc
}

// answered logs a reply, poisons its record and re-issues from it.
func (rc *recycler) answered(v *Reply) {
	var hints []string
	for _, hn := range v.Hints {
		hints = append(hints, fmt.Sprintf("%s@%d/f%d/r%v", hn.DirPath, hn.Rank, len(hn.Frags), hn.Replicas))
	}
	rc.log = append(rc.log, strings.TrimSpace(fmt.Sprintf("t=%d id=%d err=%q served=%d fwd=%d %s",
		rc.h.engine.Now(), v.ReqID, v.Err, v.Served, v.Forwards, strings.Join(hints, ","))))
	r, ok := rc.held[v.ReqID]
	if !ok {
		rc.log = append(rc.log, "unmatched reply")
		return
	}
	delete(rc.held, v.ReqID)
	*r = Request{ID: 1<<63 | v.ReqID, Client: rc.h.client, Op: OpGetattr, Path: poisonPath}
	rc.free = append(rc.free, r)
	if len(rc.script) > 0 {
		next := rc.script[0]
		rc.script = rc.script[1:]
		rc.issue(next)
	}
}

// issue sends op from a free record, or a new one. A script op carries its
// target rank in Client, which issue replaces with the requester's address.
func (rc *recycler) issue(op Request) {
	var r *Request
	if n := len(rc.free); n > 0 {
		r = rc.free[n-1]
		rc.free = rc.free[:n-1]
	} else {
		r = new(Request)
	}
	rank := simnet.Addr(op.Client)
	rc.h.nextID++
	op.ID, op.Client, op.IssuedAt = rc.h.nextID, rc.h.client, rc.h.engine.Now()
	*r = op
	rc.held[r.ID] = r
	rc.h.net.Send(rc.h.client, rank, r)
}

// start issues the first k script ops; every reply issues the next.
func (rc *recycler) start(k int) {
	for ; k > 0 && len(rc.script) > 0; k-- {
		next := rc.script[0]
		rc.script = rc.script[1:]
		rc.issue(next)
	}
}

// at builds a script op aimed at rank.
func at(rank int, op OpType, path string) Request {
	return Request{Client: simnet.Addr(rank), Op: op, Path: path}
}

func (rc *recycler) check(t *testing.T, want []string) {
	t.Helper()
	if len(rc.script) != 0 {
		t.Errorf("%d script ops never issued", len(rc.script))
	}
	if strings.Join(rc.log, "\n") != strings.Join(want, "\n") {
		t.Fatalf("reply log:\n%s\nwant:\n%s", strings.Join(rc.log, "\n"), strings.Join(want, "\n"))
	}
}

// TestRequestRecordReuseReject: resolution failures answer from the reject
// interval, interleaved with served creates, two records in flight.
func TestRequestRecordReuseReject(t *testing.T) {
	h := newHarness(t, 1, noBal, nil)
	h.do(0, OpMkdir, "/a")
	rc := newRecycler(h)
	rc.script = []Request{
		at(0, OpGetattr, "/missing"), at(0, OpCreate, "/a/f1"),
		at(0, OpCreate, "/nodir/f"), at(0, OpGetattr, "/a/f1"),
		at(0, OpUnlink, "/a/none"), at(0, OpCreate, "/a/f1"),
		at(0, OpGetattr, "/a/f1"),
	}
	rc.start(2)
	h.engine.RunUntilIdle()
	rc.check(t, []string{
		"t=950 id=2 err=\"namespace: no such entry: //missing\" served=0 fwd=0",
		"t=1300 id=4 err=\"namespace: no such entry: //nodir\" served=0 fwd=0",
		"t=1440 id=3 err=\"\" served=0 fwd=0 /@0/f0/r[]",
		"t=1560 id=5 err=\"\" served=0 fwd=0 /@0/f0/r[]",
		"t=1700 id=6 err=\"unlink: namespace: no such entry: /a/none\" served=0 fwd=0",
		"t=2050 id=7 err=\"namespace: entry already exists: /a/f1\" served=0 fwd=0 /@0/f0/r[]",
		"t=2110 id=8 err=\"\" served=0 fwd=0 /@0/f0/r[]",
	})
}

// TestRequestRecordReuseForwardLimit: the 16-hop error answers from the
// forwarding rank's interval, next to ordinary forwards that are served at
// the authority.
func TestRequestRecordReuseForwardLimit(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	h.do(0, OpMkdir, "/a")
	d, _ := h.ns.Resolve("/a")
	h.ns.SetAuthOverride(d, 1)
	rc := newRecycler(h)
	looped := at(0, OpCreate, "/a/loop")
	looped.Hops = 16
	rc.script = []Request{
		looped, at(0, OpCreate, "/a/f1"), at(1, OpGetattr, "/a/f1"),
		looped, at(0, OpGetattr, "/a/f1"), at(1, OpCreate, "/a/f2"),
	}
	rc.start(2)
	h.engine.RunUntilIdle()
	rc.check(t, []string{
		"t=915 id=2 err=\"too many forwards\" served=0 fwd=17 /a@1/f0/r[]",
		"t=1540 id=4 err=\"\" served=1 fwd=0 /a@1/f0/r[]",
		"t=1605 id=3 err=\"\" served=1 fwd=1 /a@1/f0/r[]",
		"t=1765 id=5 err=\"too many forwards\" served=0 fwd=17 /a@1/f0/r[]",
		"t=2065 id=6 err=\"\" served=1 fwd=1 /a@1/f0/r[]",
		"t=2630 id=7 err=\"\" served=1 fwd=0 /a@1/f0/r[]",
	})
}

// TestRequestRecordReuseAcrossCrash: a rank crashes with a service interval
// and a journal write in flight and recovers inside the interval, so the
// stale interval and the late journal ack answer while the requester is
// re-issuing from answered records; the records the crash dropped are never
// answered and never reused.
func TestRequestRecordReuseAcrossCrash(t *testing.T) {
	h := newHarness(t, 1, noBal, func(c *Config) {
		c.RecoverBase = 10 * sim.Microsecond
		c.RecoverPerEntry = 0
	})
	m := h.mdss[0]
	h.do(0, OpMkdir, "/a")
	rc := newRecycler(h)
	rc.script = []Request{
		at(0, OpCreate, "/a/f1"), at(0, OpCreate, "/a/f2"), at(0, OpCreate, "/a/f3"),
		at(0, OpGetattr, "/a/f1"), at(0, OpCreate, "/a/f4"), at(0, OpGetattr, "/a/f2"),
		at(0, OpCreate, "/a/f5"), at(0, OpGetattr, "/a/f5"),
	}
	rc.start(3)
	h.engine.Schedule(500, func() {
		m.Crash()
		m.Recover(nil)
	})
	h.engine.Run(h.engine.Now() + 10*sim.Millisecond)
	m.Stop()
	// Whatever the crash dropped stays held: re-issue the rest on fresh
	// records.
	for len(rc.script) > 0 {
		rc.start(1)
		h.engine.RunUntilIdle()
	}
	rc.check(t, []string{
		"t=1380 id=2 err=\"\" served=0 fwd=0 /@0/f0/r[]",
		"t=1640 id=5 err=\"\" served=0 fwd=0 /@0/f0/r[]",
		"t=1670 id=3 err=\"\" served=0 fwd=0 /@0/f0/r[]",
		"t=2190 id=7 err=\"\" served=0 fwd=0 /@0/f0/r[]",
		"t=2330 id=6 err=\"\" served=0 fwd=0 /@0/f0/r[]",
		"t=2740 id=9 err=\"\" served=0 fwd=0 /@0/f0/r[]",
		"t=2880 id=8 err=\"\" served=0 fwd=0 /@0/f0/r[]",
	})
	if len(rc.held) == 0 {
		t.Fatal("the crash dropped no request: the scenario no longer covers it")
	}
}

// TestRequestRecordReuseReplicaRead: reads served from a replica answer
// like any other, and a create parked on the revoke barrier re-serves from
// the barrier's wake-up while its neighbours' records are being reused.
func TestRequestRecordReuseReplicaRead(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	reg := enableReplication(h)
	h.do(0, OpMkdir, "/a")
	h.do(0, OpCreate, "/a/f")
	reg.Grant("/a", 1)
	rc := newRecycler(h)
	rc.script = []Request{
		at(1, OpGetattr, "/a/f"), at(1, OpGetattr, "/a/f"), at(0, OpCreate, "/a/g"),
		at(1, OpGetattr, "/a/g"), at(1, OpLookup, "/a/f"), at(0, OpGetattr, "/a/g"),
	}
	rc.start(3)
	h.engine.RunUntilIdle()
	rc.check(t, []string{
		"t=1715 id=3 err=\"\" served=1 fwd=0 /@0/f0/r[],/a@0/f0/r[]",
		"t=1975 id=6 err=\"namespace: no such entry: /a/g\" served=1 fwd=0",
		"t=2165 id=4 err=\"\" served=0 fwd=1 /@0/f0/r[],/a@0/f0/r[]",
		"t=2305 id=5 err=\"\" served=0 fwd=0 /@0/f0/r[],/a@0/f0/r[]",
		"t=2360 id=7 err=\"\" served=0 fwd=1 /@0/f0/r[],/a@0/f0/r[]",
		"t=2425 id=8 err=\"\" served=0 fwd=0 /@0/f0/r[],/a@0/f0/r[]",
	})
	if h.mdss[1].Counters.ReplicaReads == 0 || h.mdss[0].Counters.ReplicaWriteStalls == 0 {
		t.Fatalf("replica reads %d, write stalls %d: the scenario no longer covers both",
			h.mdss[1].Counters.ReplicaReads, h.mdss[0].Counters.ReplicaWriteStalls)
	}
}

// TestRequestRecordReuseDeferredExport: requests deferred behind an export's
// freeze re-serve after the commit, forward to the importer and answer from
// there, while answered records are re-issued into the still-frozen unit.
func TestRequestRecordReuseDeferredExport(t *testing.T) {
	h := newHarness(t, 2, noBal, nil)
	h.do(0, OpMkdir, "/move")
	for i := 0; i < 20; i++ {
		h.do(0, OpCreate, "/move/"+nameOf(i))
	}
	d, _ := h.ns.Resolve("/move")
	rc := newRecycler(h)
	rc.script = []Request{
		at(0, OpCreate, "/move/x1"), at(0, OpGetattr, "/move/"+nameOf(3)),
		at(0, OpCreate, "/move/x2"), at(1, OpGetattr, "/move/x1"),
		at(0, OpCreate, "/move/x3"), at(0, OpGetattr, "/move/x2"),
	}
	h.mdss[0].startExport(exportUnit{dir: d, load: 10}, 1)
	rc.start(3)
	h.engine.RunUntilIdle()
	rc.check(t, []string{
		"t=18641 id=23 err=\"\" served=1 fwd=1 /move@1/f0/r[]",
		"t=18706 id=22 err=\"\" served=1 fwd=1 /move@1/f0/r[]",
		"t=19141 id=25 err=\"\" served=1 fwd=0 /move@1/f0/r[]",
		"t=19206 id=24 err=\"\" served=1 fwd=1 /move@1/f0/r[]",
		"t=19641 id=27 err=\"\" served=1 fwd=1 /move@1/f0/r[]",
		"t=19706 id=26 err=\"\" served=1 fwd=1 /move@1/f0/r[]",
	})
	if h.mdss[0].Counters.Deferred == 0 || h.mdss[0].Counters.Exports != 1 {
		t.Fatalf("deferred %d, exports %d: the scenario no longer covers a deferred re-serve",
			h.mdss[0].Counters.Deferred, h.mdss[0].Counters.Exports)
	}
}

// Package stats provides the measurement primitives used throughout the
// simulated metadata cluster: exponentially decaying popularity counters
// (the "heat" of Figure 1 in the paper), time series with windowed rates,
// running mean/stddev accumulators, percentile summaries, and heat-map grids.
package stats

import (
	"math"

	"mantle/internal/sim"
)

// DecayCounter is an exponentially decaying counter equivalent to the
// popularity counters CephFS stores in each directory. A hit adds weight;
// the value halves every half-life. Decay is applied lazily on access, so
// idle counters cost nothing. The counter does not store its half-life:
// counters that share one (a namespace has one) keep it once and pass it to
// every call. A zero or negative half-life never decays.
type DecayCounter struct {
	val  float64
	last sim.Time
}

// decayTo folds elapsed time into val.
func (c *DecayCounter) decayTo(now, halfLife sim.Time) {
	if now <= c.last {
		return
	}
	if halfLife > 0 && c.val != 0 {
		elapsed := float64(now-c.last) / float64(halfLife)
		c.val *= math.Exp2(-elapsed)
		if c.val < 1e-9 {
			c.val = 0
		}
	}
	c.last = now
}

// Hit adds delta at time now. A late hit, one older than the counter's last
// update, adds delta decayed by its age, delta·2^−(last−now)/halfLife:
// what it would still weigh had it been counted in time order.
func (c *DecayCounter) Hit(now sim.Time, delta float64, halfLife sim.Time) {
	if now < c.last && halfLife > 0 {
		c.val += delta * math.Exp2(-float64(c.last-now)/float64(halfLife))
		return
	}
	c.decayTo(now, halfLife)
	c.val += delta
}

// Get reports the decayed value at time now.
func (c *DecayCounter) Get(now, halfLife sim.Time) float64 {
	c.decayTo(now, halfLife)
	return c.val
}

// Reset zeroes the counter.
func (c *DecayCounter) Reset(now sim.Time) {
	c.val = 0
	c.last = now
}

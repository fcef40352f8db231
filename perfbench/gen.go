package main

import (
	"math"
	"sort"
)

// rng is the benchmark's own seeded generator (splitmix64). Every input a
// workload sends — keys, bands, delays, key-set shapes — is drawn from one
// rng seeded by --seed, so the same seed gives the same inputs regardless
// of what the program under test does.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 + 1} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// oneIn reports true with probability 1/n.
func (r *rng) oneIn(n uint64) bool { return r.next()%n == 0 }

// chance reports true with probability p.
func (r *rng) chance(p float64) bool { return r.float() < p }

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s
// by inverting a precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(r *rng) int {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// weighted draws an index with probability proportional to its weight.
type weighted struct {
	cum   []uint64
	total uint64
}

func newWeighted(w ...uint64) *weighted {
	c := &weighted{cum: make([]uint64, len(w))}
	for i, x := range w {
		c.total += x
		c.cum[i] = c.total
	}
	return c
}

func (c *weighted) draw(r *rng) int {
	x := r.next() % c.total
	for i, b := range c.cum {
		if x < b {
			return i
		}
	}
	return len(c.cum) - 1
}

// msgSpec is one generated input message. Keys are small integers (Zipf
// ranks), so a checker can index per-key state directly.
type msgSpec struct {
	keys    [2]uint32
	nkeys   int  // 0 only for a Sequential barrier
	seq     bool // Sequential(): runs alone, in queue order
	band    int  // priority band 0..3
	delayed bool // carries an intentional delay
}

// mix describes a workload's message mix; gen turns it into msgSpecs.
type mix struct {
	keys      int     // key space size (Zipf(1) over it)
	twoKey    float64 // share of messages with a two-key set
	seqOneIn  uint64  // 1 in seqOneIn messages is Sequential (0 = none)
	bands     bool    // draw bands 8:4:2:1 (else band 0)
	delayFrac float64 // share of messages carrying an intentional delay
}

type gen struct {
	r    *rng
	m    mix
	z    *zipf
	band *weighted
}

func newGen(seed uint64, m mix) *gen {
	return &gen{r: newRNG(seed), m: m, z: newZipf(m.keys, 1), band: newWeighted(8, 4, 2, 1)}
}

func (g *gen) next() msgSpec {
	var s msgSpec
	if g.m.seqOneIn > 0 && g.r.oneIn(g.m.seqOneIn) {
		s.seq = true
		return s
	}
	s.keys[0] = uint32(g.z.draw(g.r))
	s.nkeys = 1
	if g.m.twoKey > 0 && g.r.chance(g.m.twoKey) {
		for {
			k := uint32(g.z.draw(g.r))
			if k != s.keys[0] {
				s.keys[1] = k
				s.nkeys = 2
				break
			}
		}
	}
	if g.m.bands {
		s.band = g.band.draw(g.r)
	}
	if g.m.delayFrac > 0 && g.r.chance(g.m.delayFrac) {
		s.delayed = true
	}
	return s
}

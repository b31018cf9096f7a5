package main

import (
	"fmt"
	"time"

	"repro/internal/harness"
)

// contendedBench is the `contended-t16` workload: the paper's 16-thread
// configuration on its four most contended workloads under the htm,
// staggered and occ backends, each cell one harness.Run in turn on the
// benchmark goroutine, without the memo cache.
type contendedBench struct {
	cells []harness.RunConfig
	last  map[string]*harness.Result // each cell's latest untraced result
	out   *outcome
}

func newContended(seed int64, tiny bool, out *outcome) *contendedBench {
	benches := []string{"list-hi", "tsp", "memcached", "intruder"}
	if tiny {
		benches = []string{"intruder"}
	}
	c := &contendedBench{last: map[string]*harness.Result{}, out: out}
	for _, b := range benches {
		for _, bk := range []string{"htm", "staggered", "occ"} {
			c.cells = append(c.cells, harness.RunConfig{Benchmark: b, Backend: bk, Threads: harness.PaperThreads, Seed: seed})
		}
	}
	return c
}

func (c *contendedBench) setup() (time.Duration, error) {
	start := time.Now()
	err := prepare(c.cells)
	return time.Since(start), err
}

func (c *contendedBench) pass(t *tracer) (passResult, error) {
	var p passResult
	for _, rc := range c.cells {
		id := t.begin("harness.Run", cellName(rc), 0)
		start := time.Now()
		r, err := harness.Run(rc)
		d := time.Since(start)
		t.end(id)
		p.wall += d
		if err = verified(rc, r, err); err == nil {
			ev := simEvents(&r.Stats)
			if ev == 0 {
				err = fmt.Errorf("%s: no simulated events", cellName(rc))
			} else {
				p.events += ev
				p.samples = append(p.samples, float64(d.Nanoseconds())/float64(ev))
				c.last[cellName(rc)] = r
			}
		}
		c.out.unit(err)
	}
	return p, nil
}

func (c *contendedBench) layers(t *tracer, dir string, vals map[string]float64) (map[string]int64, error) {
	untraced := func(rc harness.RunConfig) (*harness.Result, error) {
		if r, ok := c.last[cellName(rc)]; ok {
			return r, nil
		}
		return nil, fmt.Errorf("%s: no untraced result", cellName(rc))
	}
	notReached(vals, "harness.", "service.", "journal.")
	return cellLayers(t, c.out, c.cells, untraced, dir+"/store", vals)
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/stagger"
)

// recreatedPasses is how many of the last untraced passes' cells the
// traced run re-creates.
const recreatedPasses = 5

// serviceBenches are the workloads whose one-thread cells are cheap
// enough (1-8 ms of host time) for a job stream.
var serviceBenches = []string{"genome", "intruder", "kmeans", "labyrinth", "ssca2", "memcached", "vacation"}

// serviceBench is the `service` workload: an in-process staggerd over a
// fresh store with its journal on, driven by two closed-loop clients.
// Each pass boots a daemon on a fresh directory (untimed) and submits
// every cell of its batch twice: the first job simulates, encodes and
// stores the result, the repeat is served from the store. Every cell of
// a run has its own workload seed.
type serviceBench struct {
	seed    int64
	perPass int
	work    string
	passes  int   // passes run so far
	next    int64 // cells handed out so far
	out     *outcome

	stats   svcStats            // untraced passes
	cells   []harness.RunConfig // every cell submitted in untraced passes
	events  map[string]uint64   // simulated events per cell, from the memo cache
	image   string              // journal crash image taken mid traced pass
	records uint64              // records in the journal image setup restarts over
	metrics service.Metrics     // the traced pass's server counters
}

func newService(seed int64, tiny bool, work string, out *outcome) *serviceBench {
	n := 3 * len(serviceBenches)
	if tiny {
		n = 3
	}
	return &serviceBench{seed: seed, perPass: n, work: work, events: map[string]uint64{}, out: out}
}

// batch returns the next n cells: the cheap workloads in turn under the
// htm, staggered and occ backends, each with its own workload seed.
func (s *serviceBench) batch() []harness.RunConfig {
	backends := []string{"staggered", "htm", "occ"}
	cells := make([]harness.RunConfig, s.perPass)
	for i := range cells {
		k := s.next
		s.next++
		cells[i] = harness.RunConfig{
			Benchmark: serviceBenches[k%int64(len(serviceBenches))],
			Mode:      stagger.ModeStaggeredHW, // the service's default mode
			Backend:   backends[(k/int64(len(serviceBenches)))%3],
			Threads:   1,
			Seed:      s.seed*1_000_000 + k + 1,
		}
	}
	return cells
}

// primePasses is how many passes' worth of jobs the daemon that setup
// restarts has served before.
const primePasses = 10

// setup restarts the daemon after a crash: service.New over the store
// that earlier traffic filled and a journal image taken from that
// traffic's live daemon after its last job was done, so the boot replays
// every record before it serves. The first call serves the traffic and
// takes the image, untimed.
func (s *serviceBench) setup() (time.Duration, error) {
	dir := filepath.Join(s.work, "restart")
	image := filepath.Join(s.work, "restart.wal")
	if s.next == 0 {
		srv, err := openService(dir)
		if err != nil {
			return 0, err
		}
		for i := 0; i < primePasses; i++ {
			checkJobs(srv.Handler(), runClients(srv, s.batch(), nil, nil), s.out)
		}
		s.records, err = journalSettled(srv)
		if err == nil {
			err = copyFile(journalPath(dir), image)
		}
		srv.Close()
		harness.ClearCache()
		if err != nil {
			return 0, err
		}
	}
	// Close compacted the journal; put the crash image back.
	if err := copyFile(image, journalPath(dir)); err != nil {
		return 0, err
	}
	start := time.Now()
	srv, err := openService(dir)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	m := srv.Metrics()
	srv.Close()
	if m.Recovery == nil || m.Recovery.ReplayedRecords != s.records || m.Recovery.RequeuedJobs != 0 {
		return 0, fmt.Errorf("service restart: recovery %+v, want %d records replayed and no job requeued", m.Recovery, s.records)
	}
	return d, nil
}

func (s *serviceBench) pass(t *tracer) (passResult, error) {
	dir := filepath.Join(s.work, fmt.Sprintf("pass-%d", s.passes))
	defer os.RemoveAll(dir)
	s.passes++
	srv, err := openService(dir)
	if err != nil {
		return passResult{}, err
	}
	defer srv.Close()
	cells := s.batch()
	var mid func()
	var copyErr error
	if t != nil && s.image == "" {
		s.image = filepath.Join(s.work, "crash.wal")
		mid = func() { copyErr = copyFile(journalPath(dir), s.image) }
	}
	start := time.Now()
	jobs := runClients(srv, cells, t, mid)
	wall := time.Since(start)
	if copyErr != nil {
		return passResult{}, copyErr
	}
	checkJobs(srv.Handler(), jobs, s.out)
	if t != nil {
		s.metrics = srv.Metrics()
	}

	p := passResult{wall: wall}
	for _, cj := range jobs {
		r, err := harness.RunCached(cj.cell) // the fresh job's memoized result
		if err == nil && r.VerifyErr == nil && simEvents(&r.Stats) > 0 {
			ev := simEvents(&r.Stats)
			p.events += ev
			p.samples = append(p.samples, float64(cj.freshLat.Nanoseconds())/float64(ev))
			s.events[cellName(cj.cell)] = ev
		}
	}
	if t == nil {
		s.stats.add(jobs, wall)
		// The traced run re-creates the cells of the last few passes.
		s.cells = append(s.cells, cells...)
		s.cells = s.cells[max(len(s.cells)-recreatedPasses*len(cells), 0):]
	}
	harness.ClearCache() // keep memory flat across passes
	return p, nil
}

func (s *serviceBench) layers(t *tracer, dir string, vals map[string]float64) (map[string]int64, error) {
	s.stats.report(vals)
	if s.image == "" {
		return nil, fmt.Errorf("service: no journal crash image was taken")
	}
	if err := journalLayer(t, s.image, s.metrics, vals); err != nil {
		return nil, err
	}
	untraced := func(rc harness.RunConfig) (*harness.Result, error) {
		r, err := harness.Run(rc)
		if err == nil && simEvents(&r.Stats) != s.events[cellName(rc)] {
			err = fmt.Errorf("%s: harness.Run simulated %d events, the service job %d",
				cellName(rc), simEvents(&r.Stats), s.events[cellName(rc)])
		}
		return r, err
	}
	notReached(vals, "harness.")
	return cellLayers(t, s.out, s.cells, untraced, dir+"/store", vals)
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/vfs"
)

// jobTimeout bounds how long a client waits for one job.
const jobTimeout = 60 * time.Second

// openService starts an in-process staggerd over dir: durable store and
// journal on, two job workers, one simulation per job.
func openService(dir string) (*service.Server, error) {
	return service.New(service.Config{StoreDir: dir, JobWorkers: 2, RunWorkers: 1})
}

// journalPath is where a server over dir keeps its job journal.
func journalPath(dir string) string { return filepath.Join(dir, "journal", "jobs.wal") }

// cellJob is one cell a client submitted twice: first it simulates
// (fresh), then the same spec is served from the store (stored).
type cellJob struct {
	cell              harness.RunConfig
	fresh, stored     *service.Job
	freshLat, stLat   time.Duration
	freshSub, stSub   time.Duration // time inside Submit
	freshErr, storErr error
}

// runClients drives srv with two closed-loop clients. Client c takes
// cells c, c+2, ...; for each it submits a single-cell run job, waits for
// it, then submits the identical job again and waits for that. After
// half of the cells, mid (if set) is called once while the other client
// is still working.
func runClients(srv *service.Server, cells []harness.RunConfig, t *tracer, mid func()) []cellJob {
	jobs := make([]cellJob, len(cells))
	var done atomic.Int64
	var once sync.Once
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(cells); i += 2 {
				cj := &jobs[i]
				cj.cell = cells[i]
				run := cellName(cells[i])
				cj.fresh, cj.freshLat, cj.freshSub, cj.freshErr = submitWait(srv, cells[i], t, run)
				cj.stored, cj.stLat, cj.stSub, cj.storErr = submitWait(srv, cells[i], t, run)
				if mid != nil && done.Add(1) == int64(max(len(cells)/2, 1)) {
					once.Do(mid)
				}
			}
		}()
	}
	wg.Wait()
	return jobs
}

// submitWait submits one single-cell job and waits until it is done,
// returning Submit→Done latency and the time spent inside Submit.
func submitWait(srv *service.Server, rc harness.RunConfig, t *tracer, run string) (*service.Job, time.Duration, time.Duration, error) {
	spec := service.JobSpec{Kind: service.KindRun, Cells: []service.CellSpec{{
		Bench: rc.Benchmark, Mode: modeToken(rc.Mode), Backend: rc.Backend,
		Threads: rc.Threads, Seed: rc.Seed,
	}}}
	job := t.begin("client.job", run, 0)
	defer t.end(job)
	start := time.Now()
	id := t.begin("service.Submit", run, job)
	j, err := srv.Submit(spec)
	t.end(id)
	sub := time.Since(start)
	if err != nil {
		return nil, 0, sub, err
	}
	id = t.begin("service.Job.Done", run, job)
	defer t.end(id)
	select {
	case <-j.Done():
	case <-time.After(jobTimeout):
		return j, time.Since(start), sub, fmt.Errorf("%s: job %s not done after %v", run, j.ID(), jobTimeout)
	}
	return j, time.Since(start), sub, nil
}

// checkJobs verifies every job pair: both done, the first simulated and
// the second came from the store, the two result payloads fetched
// through the HTTP handler are byte-identical, and the workload's own
// verification passed.
func checkJobs(h http.Handler, jobs []cellJob, o *outcome) {
	for _, cj := range jobs {
		name := cellName(cj.cell)
		first, err := jobResult(h, cj.fresh, cj.freshErr, false)
		if err != nil {
			err = fmt.Errorf("%s fresh job: %w", name, err)
		}
		o.unit(err)
		again, err := jobResult(h, cj.stored, cj.storErr, true)
		if err == nil && string(again) != string(first) {
			err = errors.New("stored payload differs from the fresh computation")
		}
		if err != nil {
			err = fmt.Errorf("%s stored job: %w", name, err)
		}
		o.unit(err)
	}
}

// jobResult checks one job's status and returns its result payload as
// GET /jobs/{id}/result serves it.
func jobResult(h http.Handler, j *service.Job, err error, fromStore bool) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	st := j.Status()
	switch {
	case st.State != service.JobDone:
		return nil, fmt.Errorf("state %s: %s", st.State, st.Error)
	case fromStore && st.FromStore != 1:
		return nil, fmt.Errorf("expected a store hit, got from_store=%d computed=%d", st.FromStore, st.Computed)
	case !fromStore && st.Computed != 1:
		return nil, fmt.Errorf("expected a simulation, got from_store=%d computed=%d", st.FromStore, st.Computed)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+j.ID()+"/result", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET result: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var cells []service.CellResult
	if err := json.Unmarshal(rec.Body.Bytes(), &cells); err != nil {
		return nil, fmt.Errorf("GET result: %w", err)
	}
	if len(cells) != 1 {
		return nil, fmt.Errorf("GET result: %d cells, want 1", len(cells))
	}
	if cells[0].VerifyErr != "" {
		return nil, fmt.Errorf("verify: %s", cells[0].VerifyErr)
	}
	return rec.Body.Bytes(), nil
}

// svcStats accumulates the service-side measurements of client jobs.
type svcStats struct {
	fresh, stored, submit, run []float64
	wall                       time.Duration
	jobs, fromStore            int
}

func (s *svcStats) add(jobs []cellJob, wall time.Duration) {
	s.wall += wall
	for _, cj := range jobs {
		for k, j := range []*service.Job{cj.fresh, cj.stored} {
			if j == nil {
				continue
			}
			st := j.Status()
			s.jobs++
			s.fromStore += st.FromStore
			if k == 0 {
				s.run = append(s.run, float64(st.RunMS))
			}
		}
		s.fresh = append(s.fresh, float64(cj.freshLat)/1e6)
		s.stored = append(s.stored, float64(cj.stLat)/1e6)
		s.submit = append(s.submit, float64(cj.freshSub)/1e3, float64(cj.stSub)/1e3)
	}
}

func (s *svcStats) report(vals map[string]float64) {
	vals["service.submit_us"] = mean(s.submit)
	vals["service.run_ms"] = mean(s.run)
	vals["service.from_store_frac"] = ratio(float64(s.fromStore), float64(s.jobs))
	vals["service.fresh_job_ms_p50"] = median(s.fresh)
	vals["service.fresh_job_ms_p90"] = percentile(s.fresh, 0.9)
	vals["service.stored_job_ms_p50"] = median(s.stored)
	vals["service.jobs_per_s"] = ratio(float64(s.jobs), s.wall.Seconds())
}

// copyFile snapshots src into dst: taken while a server is appending,
// it is a crash image of the journal.
func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// journalSettled waits until srv has journaled the running and done
// states of every job it accepted (each job appends three records, the
// last after its Done channel closes), so that a copy of the journal
// holds whole records only. It returns the number of records.
func journalSettled(srv *service.Server) (uint64, error) {
	deadline := time.Now().Add(jobTimeout)
	for {
		m := srv.Metrics()
		if m.Journal == nil {
			return 0, errors.New("service runs without a journal")
		}
		if m.Journal.Appends >= 3*m.Accepted {
			return m.Journal.Appends, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("journal holds %d records for %d jobs after %v", m.Journal.Appends, m.Accepted, jobTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// journalLayer replays a journal crash image and reports the replay
// time and the journal appends per accepted job of a server's counters.
func journalLayer(t *tracer, image string, m service.Metrics, vals map[string]float64) error {
	id := t.begin("journal.Open", image, 0)
	j, rep, err := journal.Open(vfs.OS, image)
	t.end(id)
	if err != nil {
		return err
	}
	defer j.Close()
	if len(rep.Records) == 0 {
		return errors.New("journal crash image holds no records")
	}
	vals["journal.open_ms"] = t.meanOf("journal.Open", time.Millisecond)
	if m.Journal == nil {
		return errors.New("service runs without a journal")
	}
	vals["journal.appends_per_job"] = ratio(float64(m.Journal.Appends), float64(m.Accepted))
	return nil
}

package server

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/telemetry"
)

// JobStatus is the lifecycle state of an exact-profile job.
type JobStatus string

// Job lifecycle states.
const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// ErrJobsBusy is returned by Submit when the worker queue is full; the
// handler maps it to 503 so clients back off instead of piling up k!-state
// searches.
var ErrJobsBusy = errors.New("server: job queue full")

// ErrUnknownJob is returned by Get for an ID that was never issued (or has
// been pruned).
var ErrUnknownJob = errors.New("server: unknown job id")

// Job is one asynchronous exact-profile computation. The struct returned by
// Submit and Get is a copy; the Result pointer, once set, is immutable.
type Job struct {
	ID  string
	Key Key
	// ReqID is the X-Request-Id of the submitting request: the async build
	// stays correlated with the HTTP request that asked for it, in both the
	// poll response and the slow log.
	ReqID  string
	Status JobStatus
	Err    string
	Result *core.BFSResult
}

// maxFinishedJobs bounds the completed-job ledger: polls for jobs older
// than the last maxFinishedJobs completions answer ErrUnknownJob. In-flight
// jobs are never pruned.
const maxFinishedJobs = 1024

// Jobs runs exact-profile computations asynchronously on a bounded
// pool.Runner — the sanctioned spawn chokepoint, so this package contains
// no raw go statements. Submitting a key whose job is still queued or
// running coalesces onto the existing job; submitting a key whose profile
// is already cached completes immediately without occupying a worker.
type Jobs struct {
	cache  *Cache
	runner *pool.Runner
	// slow, when non-nil, receives each executed job's span timeline after
	// it finishes (the server wires this to its slow log; the spans alias a
	// pooled trace and must not be retained past the call).
	slow func(job *Job, start time.Time, d time.Duration, spans []telemetry.PhaseSpan)

	mu       sync.Mutex
	byID     map[string]*Job
	byKey    map[Key]*Job // queued/running job per key, for coalescing
	finished []string     // completion order, for pruning
	nextID   int64
	stats    JobsStats
}

// NewJobs returns a job manager executing on runner. The caller retains
// ownership of runner's lifecycle only through Close.
func NewJobs(cache *Cache, runner *pool.Runner) *Jobs {
	return &Jobs{
		cache:  cache,
		runner: runner,
		byID:   make(map[string]*Job),
		byKey:  make(map[Key]*Job),
	}
}

// Submit registers an exact-profile job for key and returns its snapshot.
// reqID is the submitting request's X-Request-Id, recorded on a newly
// created job (a coalesced submit keeps the original submitter's ID).
// Cached profiles complete synchronously; duplicate submits coalesce onto
// the in-flight job; a full worker queue returns ErrJobsBusy.
func (j *Jobs) Submit(key Key, reqID string) (Job, error) {
	j.mu.Lock()
	if job, ok := j.byKey[key]; ok {
		j.stats.Coalesced++
		snap := *job
		j.mu.Unlock()
		return snap, nil
	}
	if res, ok := j.cache.CachedProfile(key); ok {
		job := j.newJobLocked(key)
		job.ReqID = reqID
		job.Status = JobDone
		job.Result = res
		j.stats.Submitted++
		j.stats.Completed++
		j.finishLocked(job)
		snap := *job
		j.mu.Unlock()
		return snap, nil
	}
	job := j.newJobLocked(key)
	job.ReqID = reqID
	job.Status = JobQueued
	id := job.ID
	// Admit before publishing: runner.Submit never blocks (bounded queue,
	// non-blocking send), so holding j.mu here keeps a rejected job from
	// ever being observable by Get or a coalescing Submit.
	//scglint:lockheld runner.Submit is a non-blocking bounded-queue admit; atomicity under j.mu is what keeps rejected jobs unobservable
	if !j.runner.Submit(func() { j.run(id) }) {
		delete(j.byID, id)
		j.stats.Rejected++
		j.mu.Unlock()
		return Job{}, ErrJobsBusy
	}
	j.byKey[key] = job
	j.stats.Submitted++
	snap := *job
	j.mu.Unlock()
	return snap, nil
}

// Get returns a snapshot of the job with the given ID.
func (j *Jobs) Get(id string) (Job, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	job, ok := j.byID[id]
	if !ok {
		return Job{}, ErrUnknownJob
	}
	return *job, nil
}

// Stats returns a snapshot of the job counters plus queued/running gauges.
func (j *Jobs) Stats() JobsStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.stats
	for _, job := range j.byKey {
		switch job.Status {
		case JobQueued:
			s.Queued++
		case JobRunning:
			s.Running++
		}
	}
	return s
}

// Close drains the job queue: it blocks until every admitted job has
// finished, and no further submits are accepted by the runner.
func (j *Jobs) Close() { j.runner.Close() }

// run executes one job on a runner worker. The worker acquires its own
// trace under the submitting request's ID, so the build/BFS phases of an
// async profile land in the slow log correlated with the 202 the client
// already holds.
func (j *Jobs) run(id string) {
	j.mu.Lock()
	job, ok := j.byID[id]
	if !ok {
		j.mu.Unlock()
		return
	}
	job.Status = JobRunning
	key := job.Key
	reqID := job.ReqID
	j.mu.Unlock()

	start := time.Now()
	// A fresh root, not the request's context: async profile jobs outlive
	// their 202 request, and the job must not die with the submitting
	// connection.
	ctx := context.Background()
	var tr *telemetry.Trace
	if j.slow != nil {
		tr = telemetry.AcquireTrace(reqID, start)
		defer tr.Release()
		ctx = telemetry.WithTrace(ctx, tr)
	}

	res, err := j.cache.Profile(ctx, key)

	if j.slow != nil {
		d := time.Since(start)
		snap := Job{ID: id, Key: key, ReqID: reqID}
		j.slow(&snap, start, d, tr.Spans())
	}

	j.mu.Lock()
	if err != nil {
		job.Status = JobFailed
		job.Err = err.Error()
		j.stats.Failed++
	} else {
		job.Status = JobDone
		job.Result = res
		j.stats.Completed++
	}
	if j.byKey[key] == job {
		delete(j.byKey, key)
	}
	j.finishLocked(job)
	j.mu.Unlock()
}

// newJobLocked allocates and registers the next job. Callers hold j.mu.
func (j *Jobs) newJobLocked(key Key) *Job {
	j.nextID++
	var buf [24]byte
	id := strconv.AppendInt(append(buf[:0], "job-"...), j.nextID, 10)
	job := &Job{ID: string(id), Key: key}
	j.byID[job.ID] = job
	return job
}

// finishLocked records a completed job and prunes the ledger. Callers hold
// j.mu.
func (j *Jobs) finishLocked(job *Job) {
	j.finished = append(j.finished, job.ID)
	for len(j.finished) > maxFinishedJobs {
		delete(j.byID, j.finished[0])
		j.finished = j.finished[1:]
	}
}

package server

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/perm"
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

// Job is one exact-profile computation. The struct returned by Submit and
// Get is a copy; the Result pointer, once set, is immutable.
type Job struct {
	ID  string
	Key Key
	// ReqID is the X-Request-Id of the submitting request: the build and
	// its write-back stay correlated with the HTTP request that asked for
	// them, in both the poll response and the slow log.
	ReqID  string
	Status JobStatus
	Err    string
	Result *core.BFSResult
	// cached marks Submit's snapshot of a job that found its profile
	// resident and ran nothing; the ledger's copy never carries it.
	cached bool
}

// Slow-log endpoints of the work a profile job does off its request: the
// job itself, and the store write-back of a profile it built. Only the
// first starts with "job:", so a reader counting jobs counts each once.
const (
	jobEndpoint       = "job:/v1/profile"
	writeBackEndpoint = "writeback:/v1/profile"
)

// maxFinishedJobs bounds the completed-job ledger: polls for jobs older
// than the last maxFinishedJobs completions answer ErrUnknownJob. In-flight
// jobs are never pruned.
const maxFinishedJobs = 1024

// Jobs runs exact-profile computations. A job on fewer than
// core.ParallelBFSThreshold states runs on its submitter's goroutine, the
// size below which the engine itself runs one worker; a larger one runs
// asynchronously on a bounded pool.Runner — the sanctioned spawn
// chokepoint, so this package contains no raw go statements. Both run
// through the same run, and both hand the store write-back of a profile
// they built to a runner worker, after the job is done. Submitting a key
// whose job is still queued or running coalesces onto the existing job;
// submitting a key whose profile is already cached completes immediately
// without running a job.
type Jobs struct {
	cache  *Cache
	runner *pool.Runner
	// slow, when non-nil, receives the span timeline of each executed job
	// and of each write-back after it finishes, under the submitting
	// request's ID (the server wires this to its slow log when it has one;
	// the spans alias a pooled trace and must not be retained past the
	// call). A nil slow means no job stamps a timeline.
	slow func(endpoint, reqID string, start time.Time, d time.Duration, spans []telemetry.PhaseSpan)
	// writeBack persists a profile a job built. It is the cache's store
	// write when the cache has a store, nil otherwise, and always runs on
	// a runner worker once the job is published done. Tests replace it to
	// hold a write-back open.
	writeBack func(key Key, res *core.BFSResult)

	mu       sync.Mutex
	byID     map[string]*Job
	byKey    map[Key]*Job // queued/running job per key, for coalescing
	finished []string     // completion order, for pruning
	nextID   int64
	stats    JobsStats
}

// NewJobs returns a job manager executing on runner. The caller retains
// ownership of runner's lifecycle only through Close. Attach the cache's
// store (Cache.SetStore) first: NewJobs reads it to decide whether built
// profiles are written back.
func NewJobs(cache *Cache, runner *pool.Runner) *Jobs {
	j := &Jobs{
		cache:  cache,
		runner: runner,
		byID:   make(map[string]*Job),
		byKey:  make(map[Key]*Job),
	}
	if cache.store != nil {
		j.writeBack = cache.writeBack
	}
	return j
}

// runsInline reports whether key's profile job runs on its submitter's
// goroutine: its instance has fewer than core.ParallelBFSThreshold states.
func runsInline(key Key) bool {
	k := key.K()
	return k <= perm.MaxRankK && perm.Factorial(k) < core.ParallelBFSThreshold
}

// Submit registers an exact-profile job for key and returns its snapshot.
// reqID is the submitting request's X-Request-Id, recorded on a newly
// created job (a coalesced submit keeps the original submitter's ID).
// Cached profiles complete synchronously; duplicate submits coalesce onto
// the in-flight job. A job on fewer than core.ParallelBFSThreshold states
// runs here, on the caller's goroutine, and Submit returns its final
// snapshot; a larger one is queued, and a full worker queue returns
// ErrJobsBusy.
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
		snap.cached = true
		return snap, nil
	}
	job := j.newJobLocked(key)
	job.ReqID = reqID
	job.Status = JobQueued
	id := job.ID
	if runsInline(key) {
		// Published in byKey first, so a concurrent submit of the key
		// coalesces onto this job while it runs.
		j.byKey[key] = job
		j.stats.Submitted++
		j.stats.Inline++
		j.mu.Unlock()
		snap, writeBack := j.run(id)
		if writeBack != nil && !j.runner.Submit(writeBack) {
			// A full queue sheds the write-back, not the job: a profile
			// this small is cheap to build again.
			j.mu.Lock()
			j.stats.WriteBacksSkipped++
			j.mu.Unlock()
		}
		return snap, nil
	}
	// Admit before publishing: runner.Submit never blocks (bounded queue,
	// non-blocking send), so holding j.mu here keeps a rejected job from
	// ever being observable by Get or a coalescing Submit.
	//scglint:lockheld runner.Submit is a non-blocking bounded-queue admit; atomicity under j.mu is what keeps rejected jobs unobservable
	if !j.runner.Submit(func() {
		if _, writeBack := j.run(id); writeBack != nil {
			writeBack()
		}
	}) {
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

// Close drains the job queue: it blocks until every admitted job and every
// write-back handed to the runner has finished, and no further work is
// accepted by the runner.
func (j *Jobs) Close() { j.runner.Close() }

// run executes one job, on a runner worker or on its submitter's
// goroutine, and publishes its outcome. When there is a slow log to read
// it, run acquires its own trace under the submitting request's ID, so the
// build/BFS phases of a profile land there correlated with the answer the
// client holds. It returns the job's final snapshot and, for a profile
// this job built (not one it loaded or found resident) when a store is
// attached, the write-back to run on a runner worker: the job is done
// before its profile is persisted.
func (j *Jobs) run(id string) (Job, func()) {
	j.mu.Lock()
	job, ok := j.byID[id]
	if !ok {
		j.mu.Unlock()
		return Job{}, nil
	}
	job.Status = JobRunning
	key := job.Key
	reqID := job.ReqID
	j.mu.Unlock()

	start := time.Now()
	// A fresh root, not the request's context: async profile jobs outlive
	// their 202 request, and no job dies with the submitting connection.
	ctx := context.Background()
	var tr *telemetry.Trace
	if j.slow != nil {
		tr = acquireTrace(reqID, start)
		defer tr.Release()
		ctx = telemetry.WithTrace(ctx, tr)
	}

	res, built, err := j.cache.profile(ctx, key)

	if j.slow != nil {
		j.slow(jobEndpoint, reqID, start, time.Since(start), tr.Spans())
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
	snap := *job
	j.mu.Unlock()
	if !built || j.writeBack == nil {
		return snap, nil
	}
	return snap, func() { j.persist(key, reqID, res) }
}

// persist runs a job's write-back under a trace of its own: its slow-log
// record carries the submitting request's ID, a store-write phase, and
// writeBackEndpoint.
func (j *Jobs) persist(key Key, reqID string, res *core.BFSResult) {
	start := time.Now()
	var tr *telemetry.Trace
	if j.slow != nil {
		tr = acquireTrace(reqID, start)
		defer tr.Release()
		tr.Phase("store-write")
	}
	j.writeBack(key, res)
	if j.slow != nil {
		j.slow(writeBackEndpoint, reqID, start, time.Since(start), tr.Spans())
	}
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

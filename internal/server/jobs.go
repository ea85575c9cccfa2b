package server

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/telemetry"
)

// JobStatus is the lifecycle state of an exact-profile job.
type JobStatus string

// Job lifecycle states. A job gets its ID, and enters the ledger, once
// its submit holds a build slot, so the ledger never shows one waiting.
const (
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

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
	// done is closed when the job finishes, or is withdrawn before it
	// had a slot; submits of its key that coalesced onto it wait on it.
	done chan struct{}
}

// Slow-log endpoints of the work a profile job does off its request: the
// job itself, and the store write-back of a profile it built. Only the
// first starts with "job:", so a reader counting jobs counts each once.
const (
	jobEndpoint       = "job:/v1/profile"
	writeBackEndpoint = "writeback:/v1/profile"
)

// maxFinishedJobs bounds the completed-job ledger: polls for jobs older
// than the last maxFinishedJobs completions answer ErrUnknownJob. Running
// jobs are never pruned.
const maxFinishedJobs = 1024

// writeBackQueue is the depth of the runner's write-back queue; a
// write-back that finds it full is skipped (WriteBacksSkipped).
const writeBackQueue = 16

// Jobs runs exact-profile computations, each on the goroutine of the
// submit that started it, behind a gate of build slots that bounds how
// many run at once. Submitting a key whose job is waiting for a slot or
// running coalesces onto that job; submitting a key whose profile is
// already cached completes immediately without running a job. The store
// write-back of a profile a job built runs on a bounded pool.Runner after
// the job is done — the sanctioned spawn chokepoint, so this package
// contains no raw go statements.
type Jobs struct {
	cache *Cache
	// slots bounds concurrent builds: a k = 10 one holds up to ~50 MiB.
	slots  *pool.Gate
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

	mu   sync.Mutex
	byID map[string]*Job
	// byKey holds each key's unfinished job, from its first submit on, for
	// coalescing; a job waiting for a slot has no ID yet.
	byKey    map[Key]*Job
	finished []string // completion order, for pruning
	nextID   int64
	stats    JobsStats
}

// NewJobs returns a job manager that runs at most workers builds at once
// (<= 0 means runtime.GOMAXPROCS(0)) and writes built profiles back on a
// runner of as many workers. Attach the cache's store (Cache.SetStore)
// first: NewJobs reads it to decide whether built profiles are written
// back.
func NewJobs(cache *Cache, workers int) *Jobs {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	j := &Jobs{
		cache:  cache,
		slots:  pool.NewGate(workers),
		runner: pool.NewRunner(workers, writeBackQueue),
		byID:   make(map[string]*Job),
		byKey:  make(map[Key]*Job),
	}
	if cache.store != nil {
		j.writeBack = cache.writeBack
	}
	return j
}

// Submit returns key's exact-profile job once it is done. reqID is the
// submitting request's X-Request-Id, recorded on a job this submit
// creates. A cached profile completes at once, as a new job that ran
// nothing. A submit of a key whose job exists waits for that job and
// returns its snapshot. Otherwise the submit creates the key's job, waits
// for a build slot and runs the job on the caller's goroutine. ctx bounds
// both waits, for the key's job and for a slot, and Submit returns ctx's
// error when it ends one; a job that holds a slot runs to its end whatever
// ctx does, so its profile reaches the cache, the ledger and the store.
// On ctx's trace, if any, Submit marks a job-wait phase while it waits for
// the key's job, and start marks slot-wait and job.
func (j *Jobs) Submit(ctx context.Context, key Key, reqID string) (Job, error) {
	tr := telemetry.TraceFrom(ctx)
	for {
		j.mu.Lock()
		if snap, ok := j.cachedLocked(key, reqID); ok {
			j.mu.Unlock()
			return snap, nil
		}
		job, ok := j.byKey[key]
		if !ok {
			job = &Job{Key: key, ReqID: reqID, done: make(chan struct{})}
			j.byKey[key] = job
			j.mu.Unlock()
			return j.start(ctx, job)
		}
		j.stats.Coalesced++
		j.mu.Unlock()
		tr.Phase("job-wait")
		select {
		case <-job.done:
		case <-ctx.Done():
			return Job{}, ctx.Err()
		}
		j.mu.Lock()
		snap := *job
		j.mu.Unlock()
		if snap.ID != "" {
			return snap, nil
		}
		// The submit that created the job gave up before it had a slot:
		// look again, and take its place unless another submit has.
	}
}

// start waits for a build slot for job, which its submit has just put in
// byKey, and runs it. A wait that ctx ends withdraws the job unrun, with
// no ID; the submits waiting on it look again.
func (j *Jobs) start(ctx context.Context, job *Job) (Job, error) {
	tr := telemetry.TraceFrom(ctx)
	tr.Phase("slot-wait")
	if err := j.slots.Enter(ctx); err != nil {
		j.mu.Lock()
		delete(j.byKey, job.Key)
		close(job.done)
		j.mu.Unlock()
		return Job{}, err
	}
	defer j.slots.Leave()
	j.mu.Lock()
	job.Status = JobRunning
	j.registerLocked(job)
	j.stats.Submitted++
	j.stats.Running++
	j.mu.Unlock()
	tr.Phase("job")
	return j.run(job), nil
}

// submitCached is Submit for a key whose profile is resident and that has
// no job: it completes at once and needs no context. ok is false for any
// other key.
func (j *Jobs) submitCached(key Key, reqID string) (Job, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cachedLocked(key, reqID)
}

// cachedLocked is submitCached with j.mu held: a new job, done without
// running, whose snapshot is marked cached.
func (j *Jobs) cachedLocked(key Key, reqID string) (Job, bool) {
	if _, ok := j.byKey[key]; ok {
		return Job{}, false
	}
	res, ok := j.cache.CachedProfile(key)
	if !ok {
		return Job{}, false
	}
	job := &Job{Key: key, ReqID: reqID, Status: JobDone, Result: res}
	j.registerLocked(job)
	j.stats.Submitted++
	j.stats.Completed++
	j.finishLocked(job)
	snap := *job
	snap.cached = true
	return snap, true
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

// Stats returns a snapshot of the job counters and the running gauge.
func (j *Jobs) Stats() JobsStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Close blocks until every write-back handed to the runner has finished,
// and no further write-back is accepted.
func (j *Jobs) Close() { j.runner.Close() }

// run executes one job on its submitter's goroutine and publishes its
// outcome. When there is a slow log to read it, run acquires its own trace
// under the submitting request's ID, so the build/BFS phases of a profile
// land there correlated with the answer the client holds. A profile this
// job built (not one it loaded or found resident) is handed to the runner
// for its store write-back once the job is done.
func (j *Jobs) run(job *Job) Job {
	key, reqID := job.Key, job.ReqID
	start := time.Now()
	// A fresh root, not the request's context: a job that holds a slot
	// runs to its end, whatever its client does.
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
	delete(j.byKey, key)
	j.stats.Running--
	j.finishLocked(job)
	close(job.done)
	snap := *job
	j.mu.Unlock()
	if built && j.writeBack != nil && !j.runner.Submit(func() { j.persist(key, reqID, res) }) {
		// A full queue sheds the write-back, not the job.
		j.mu.Lock()
		j.stats.WriteBacksSkipped++
		j.mu.Unlock()
	}
	return snap
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

// registerLocked gives job the next ID and enters it in the ledger.
// Callers hold j.mu.
func (j *Jobs) registerLocked(job *Job) {
	j.nextID++
	var buf [24]byte
	job.ID = string(strconv.AppendInt(append(buf[:0], "job-"...), j.nextID, 10))
	j.byID[job.ID] = job
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

package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/topology"
)

// asyncKey is the smallest instance whose job is queued for a worker
// instead of run on its submit: MS(7,1), k = 8, core.ParallelBFSThreshold
// states.
var asyncKey = msKey(7, 1)

// waitDone polls until the job leaves queued/running or the deadline passes.
func waitDone(t *testing.T, j *Jobs, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, err := j.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if job.Status == JobDone || job.Status == JobFailed {
			return job
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Job{}
}

func TestJobCompletesAndMatchesDirectBFS(t *testing.T) {
	c := NewCache(64 << 20)
	j := NewJobs(c, pool.NewRunner(1, 4))
	defer j.Close()

	key := msKey(2, 1) // k=3
	job, err := j.Submit(key, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitDone(t, j, job.ID)
	if done.Status != JobDone || done.Result == nil {
		t.Fatalf("job ended %q (err=%q), want done with a result", done.Status, done.Err)
	}
	nw, err := topology.New(key.Family, key.L, key.N)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want, err := nw.Graph().ExactProfile()
	if err != nil {
		t.Fatalf("ExactProfile: %v", err)
	}
	if done.Result.Eccentricity != want.Eccentricity {
		t.Fatalf("job diameter %d, direct BFS %d", done.Result.Eccentricity, want.Eccentricity)
	}
	st := j.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats %+v, want one clean completion", st)
	}
}

func TestJobSubmitCoalescesInFlightKey(t *testing.T) {
	c := NewCache(64 << 20)
	runner := pool.NewRunner(1, 4)
	j := NewJobs(c, runner)
	defer j.Close()

	// Park the single worker so the submitted job stays queued. The
	// blocker is released on every exit path, before the deferred Close
	// waits on it.
	release := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	if !runner.Submit(func() { <-release }) {
		t.Fatal("blocker rejected")
	}
	key := asyncKey
	first, err := j.Submit(key, "")
	if err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	second, err := j.Submit(key, "")
	if err != nil {
		t.Fatalf("second Submit: %v", err)
	}
	if first.ID != second.ID {
		t.Fatalf("duplicate submit got job %s, want coalescing onto %s", second.ID, first.ID)
	}
	if st := j.Stats(); st.Coalesced != 1 || st.Submitted != 1 {
		t.Fatalf("stats %+v, want Submitted=1 Coalesced=1", st)
	}
	close(release)
	released = true
	if done := waitDone(t, j, first.ID); done.Status != JobDone {
		t.Fatalf("job ended %q (err=%q)", done.Status, done.Err)
	}
	// The key is released: a fresh submit now completes from cache.
	third, err := j.Submit(key, "")
	if err != nil {
		t.Fatalf("post-completion Submit: %v", err)
	}
	if third.ID == first.ID || third.Status != JobDone {
		t.Fatalf("post-completion submit = (%s, %s), want a new immediately-done job", third.ID, third.Status)
	}
}

func TestJobSubmitFullQueueRejects(t *testing.T) {
	c := NewCache(64 << 20)
	runner := pool.NewRunner(1, 1)
	j := NewJobs(c, runner)
	defer j.Close()

	// Saturate the runner directly: one blocker for the worker, then fillers
	// until the queue itself rejects. The fillers go in only once the
	// worker has taken the blocker: while the blocker still sits in the
	// one-slot queue the first filler is refused at once, and the worker
	// would then free the slot for the job under test. The blockers are
	// released on every exit path, before the deferred Close waits on them.
	release, started := make(chan struct{}), make(chan struct{})
	defer close(release)
	if !runner.Submit(func() { close(started); <-release }) {
		t.Fatal("blocker rejected")
	}
	<-started
	for runner.Submit(func() { <-release }) {
	}
	if _, err := j.Submit(asyncKey, ""); !errors.Is(err, ErrJobsBusy) {
		t.Fatalf("Submit on a full queue = %v, want ErrJobsBusy", err)
	}
	st := j.Stats()
	if st.Rejected != 1 {
		t.Fatalf("Rejected=%d, want 1", st.Rejected)
	}
	// The rolled-back job must not be observable.
	if _, err := j.Get("job-1"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Get on a rolled-back job = %v, want ErrUnknownJob", err)
	}
}

func TestJobCachedProfileCompletesSynchronously(t *testing.T) {
	c := NewCache(64 << 20)
	j := NewJobs(c, pool.NewRunner(1, 4))
	defer j.Close()

	key := msKey(2, 1)
	if _, err := c.Profile(context.Background(), key); err != nil {
		t.Fatalf("warm Profile: %v", err)
	}
	job, err := j.Submit(key, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job.Status != JobDone || job.Result == nil {
		t.Fatalf("submit with a warm cache = %q, want an immediately-done job", job.Status)
	}
}

func TestJobGetUnknownID(t *testing.T) {
	j := NewJobs(NewCache(1<<20), pool.NewRunner(1, 1))
	defer j.Close()
	if _, err := j.Get("job-404"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Get = %v, want ErrUnknownJob", err)
	}
}

func TestJobCloseDrainsAdmittedWork(t *testing.T) {
	c := NewCache(64 << 20)
	j := NewJobs(c, pool.NewRunner(1, 4))
	job, err := j.Submit(asyncKey, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	j.Close() // must block until the admitted job ran
	got, err := j.Get(job.ID)
	if err != nil {
		t.Fatalf("Get after Close: %v", err)
	}
	if got.Status != JobDone {
		t.Fatalf("after Close job is %q, want done: Close must drain admitted work", got.Status)
	}
}

// TestJobDoneBeforeWriteBack holds every store write-back open through the
// writeBack hook and requires each job to read done meanwhile, on both
// paths: a job run on its submit answers done from Submit, and a queued
// job's worker publishes done before it writes back.
func TestJobDoneBeforeWriteBack(t *testing.T) {
	c := NewCache(64 << 20)
	j := NewJobs(c, pool.NewRunner(2, 4))
	defer j.Close()
	// Sized to the two write-backs, so the hook never blocks on it.
	entered := make(chan Key, 2)
	release := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	j.writeBack = func(key Key, _ *core.BFSResult) {
		entered <- key
		<-release
	}
	waitWriteBack := func(want Key) {
		t.Helper()
		select {
		case got := <-entered:
			if got != want {
				t.Fatalf("write-back of %v, want %v", got, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("no write-back of %v started", want)
		}
	}

	// Submit runs on its own goroutine, so one that waited on its
	// write-back fails the test instead of hanging it.
	small := msKey(3, 2) // k = 7: runs on its submit
	submitted := make(chan Job, 1)
	go func() {
		job, err := j.Submit(small, "")
		if err != nil {
			t.Errorf("Submit(%v): %v", small, err)
		}
		submitted <- job
	}()
	var job Job
	select {
	case job = <-submitted:
	case <-time.After(30 * time.Second):
		t.Fatalf("Submit(%v) did not return while its write-back was held", small)
	}
	if job.Status != JobDone || job.Result == nil {
		t.Fatalf("Submit(%v) = %q (err=%q), want done on the submit", small, job.Status, job.Err)
	}
	waitWriteBack(small)
	if got, err := j.Get(job.ID); err != nil || got.Status != JobDone {
		t.Fatalf("%v during its write-back: %+v, %v; want done", small, got, err)
	}

	queued, err := j.Submit(asyncKey, "")
	if err != nil {
		t.Fatalf("Submit(%v): %v", asyncKey, err)
	}
	waitWriteBack(asyncKey)
	if got, err := j.Get(queued.ID); err != nil || got.Status != JobDone {
		t.Fatalf("%v during its write-back: %+v, %v; want done", asyncKey, got, err)
	}
	if st := j.Stats(); st.Inline != 1 || st.Completed != 2 || st.Running != 0 {
		t.Fatalf("stats %+v, want Inline=1 Completed=2 Running=0", st)
	}
	close(release)
	released = true
}

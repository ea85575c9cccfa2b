package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/topology"
)

// holdNetwork starts key's network build in c and holds it open until the
// returned release runs. The build then returns the real network, so a
// profile job that waited on it goes on to build the profile.
func holdNetwork(t *testing.T, c *Cache, key Key) (release func()) {
	t.Helper()
	started, hold := make(chan struct{}), make(chan struct{})
	var g pool.Group
	g.Go(func() {
		_, _ = c.getOrBuild(context.Background(), cacheKey{kindNetwork, key}, func() (any, int64, error) {
			close(started)
			<-hold
			nw, err := topology.New(key.Family, key.L, key.N)
			if err != nil {
				return nil, 0, err
			}
			return nw, networkBytes(nw), nil
		})
	})
	<-started
	released := false
	release = func() {
		if !released {
			released = true
			close(hold)
			g.Wait()
		}
	}
	t.Cleanup(release)
	return release
}

// waitFor polls cond until it holds, failing the test after 30 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// unfinished reports how many keys have a job that is waiting for a slot
// or running.
func (j *Jobs) unfinished() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.byKey)
}

func TestJobCompletesAndMatchesDirectBFS(t *testing.T) {
	c := NewCache(64 << 20)
	j := NewJobs(c, 1)
	defer j.Close()

	key := msKey(2, 1) // k=3
	done, err := j.Submit(context.Background(), key, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if done.Status != JobDone || done.Result == nil || done.cached {
		t.Fatalf("job ended %q (err=%q, cached=%v), want done with a result it built", done.Status, done.Err, done.cached)
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
	if got, err := j.Get(done.ID); err != nil || got != done {
		t.Fatalf("Get(%s) = %+v, %v; want the submit's snapshot %+v", done.ID, got, err, done)
	}
	st := j.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Failed != 0 || st.Running != 0 {
		t.Fatalf("stats %+v, want one clean completion", st)
	}
}

// TestJobSubmitCoalescesInFlightKey holds a job's build open and submits
// its key again: the second submit waits for the running job and returns
// its snapshot, under the same ID. Once the job is done the key's profile
// is resident, and a third submit completes at once as a new job.
func TestJobSubmitCoalescesInFlightKey(t *testing.T) {
	c := NewCache(64 << 20)
	j := NewJobs(c, 1)
	defer j.Close()
	key := msKey(3, 2)
	release := holdNetwork(t, c, key)

	var jobs [2]Job
	var errs [2]error
	var g pool.Group
	submit := func(i int) {
		g.Go(func() { jobs[i], errs[i] = j.Submit(context.Background(), key, "") })
	}
	submit(0)
	waitFor(t, "the first submit's job runs", func() bool { return j.Stats().Running == 1 })
	submit(1)
	waitFor(t, "the second submit coalesces", func() bool { return j.Stats().Coalesced == 1 })
	release()
	g.Wait()
	for i, err := range errs {
		if err != nil || jobs[i].Status != JobDone {
			t.Fatalf("submit %d = %+v, %v; want done", i, jobs[i], err)
		}
	}
	if jobs[0].ID != jobs[1].ID {
		t.Fatalf("duplicate submit got job %s, want coalescing onto %s", jobs[1].ID, jobs[0].ID)
	}
	if st := j.Stats(); st.Coalesced != 1 || st.Submitted != 1 || st.Running != 0 {
		t.Fatalf("stats %+v, want Submitted=1 Coalesced=1 Running=0", st)
	}
	third, err := j.Submit(context.Background(), key, "")
	if err != nil {
		t.Fatalf("post-completion Submit: %v", err)
	}
	if third.ID == jobs[0].ID || third.Status != JobDone || !third.cached {
		t.Fatalf("post-completion submit = %+v, want a new cached job", third)
	}
}

// TestJobSlotWaitEndsWithContext holds the one build slot. A cold submit
// waits for it until its context ends, returns the context's error and
// leaves no job in the ledger. A submit that joined its job meanwhile
// takes its place, and runs it once the slot is free.
func TestJobSlotWaitEndsWithContext(t *testing.T) {
	c := NewCache(64 << 20)
	j := NewJobs(c, 1)
	defer j.Close()
	if !j.slots.TryEnter() {
		t.Fatal("fresh gate refused entry")
	}
	key := msKey(3, 2)
	const timeout = 100 * time.Millisecond
	// The first submit's context ends at its deadline, but not before the
	// second submit has joined its job, however slowly that goroutine runs.
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	t0 := time.Now()
	deadline, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	ctx := holdDone(deadline, release)
	var g pool.Group
	var firstErr error
	var waited time.Duration
	firstReturned := make(chan struct{})
	g.Go(func() {
		_, firstErr = j.Submit(ctx, key, "first")
		waited = time.Since(t0)
		close(firstReturned)
	})
	waitFor(t, "the first submit's job waits for a slot", func() bool { return j.unfinished() == 1 })
	var second Job
	var secondErr error
	g.Go(func() { second, secondErr = j.Submit(context.Background(), key, "second") })
	waitFor(t, "the second submit joins the job", func() bool { return j.Stats().Coalesced == 1 })
	releaseOnce()
	select {
	case <-firstReturned:
	case <-time.After(30 * time.Second):
		t.Fatal("the first submit's wait did not end with its context")
	}
	if !errors.Is(firstErr, context.DeadlineExceeded) || waited < timeout {
		t.Fatalf("first submit = %v after %v, want the deadline after at least %v", firstErr, waited, timeout)
	}
	// The second submit now waits for the slot with a job of its own.
	waitFor(t, "the second submit takes the job's place", func() bool { return j.unfinished() == 1 })
	if _, err := j.Get("job-1"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Get(job-1) while no job ran = %v, want ErrUnknownJob", err)
	}
	j.slots.Leave()
	g.Wait()
	if secondErr != nil || second.Status != JobDone || second.ID != "job-1" || second.ReqID != "second" {
		t.Fatalf("second submit = %+v, %v; want job-1 done under its own request ID", second, secondErr)
	}
	if st := j.Stats(); st.Submitted != 1 || st.Completed != 1 || st.Running != 0 {
		t.Fatalf("stats %+v, want one job, done", st)
	}
}

// heldDone is a context whose Done closes once its parent's has and
// release is closed; Err reports the parent's error from then on.
type heldDone struct {
	context.Context
	done chan struct{}
}

func holdDone(parent context.Context, release <-chan struct{}) context.Context {
	h := &heldDone{Context: parent, done: make(chan struct{})}
	go func() {
		<-parent.Done()
		<-release
		close(h.done)
	}()
	return h
}

func (h *heldDone) Done() <-chan struct{} { return h.done }

func (h *heldDone) Err() error {
	select {
	case <-h.done:
		return h.Context.Err()
	default:
		return nil
	}
}

func TestJobCachedProfileCompletesSynchronously(t *testing.T) {
	c := NewCache(64 << 20)
	j := NewJobs(c, 1)
	defer j.Close()

	key := msKey(2, 1)
	if _, _, err := c.profile(context.Background(), key); err != nil {
		t.Fatalf("warm profile: %v", err)
	}
	// A context that has already ended: a cached profile needs no wait.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job, err := j.Submit(ctx, key, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job.Status != JobDone || job.Result == nil || !job.cached {
		t.Fatalf("submit with a warm cache = %+v, want an immediately-done cached job", job)
	}
}

func TestJobGetUnknownID(t *testing.T) {
	j := NewJobs(NewCache(1<<20), 1)
	defer j.Close()
	if _, err := j.Get("job-404"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Get = %v, want ErrUnknownJob", err)
	}
}

// TestJobCloseDrainsAdmittedWork holds a built profile's write-back open:
// Close must not return until it has finished.
func TestJobCloseDrainsAdmittedWork(t *testing.T) {
	j := NewJobs(NewCache(64<<20), 1)
	entered, release := make(chan struct{}), make(chan struct{})
	j.writeBack = func(Key, *core.BFSResult) {
		close(entered)
		<-release
	}
	if job, err := j.Submit(context.Background(), msKey(2, 2), ""); err != nil || job.Status != JobDone {
		t.Fatalf("Submit = %+v, %v; want done", job, err)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("no write-back started")
	}
	closed := make(chan struct{})
	var g pool.Group
	g.Go(func() {
		j.Close()
		close(closed)
	})
	select {
	case <-closed:
		t.Fatal("Close returned while a write-back was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	g.Wait()
}

// TestJobDoneBeforeWriteBack holds every store write-back open through the
// writeBack hook and requires each job to answer done from Submit, and to
// read done in the ledger, while its write-back runs. With both runner
// workers held and the write-back queue full, a third built profile's
// write-back is skipped and counted.
func TestJobDoneBeforeWriteBack(t *testing.T) {
	c := NewCache(64 << 20)
	j := NewJobs(c, 2)
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

	// Submit runs on its own goroutine, so one that waited on its
	// write-back fails the test instead of hanging it.
	submit := func(key Key) Job {
		t.Helper()
		submitted := make(chan Job, 1)
		var g pool.Group
		g.Go(func() {
			job, err := j.Submit(context.Background(), key, "")
			if err != nil {
				t.Errorf("Submit(%v): %v", key, err)
			}
			submitted <- job
		})
		defer g.Wait()
		select {
		case job := <-submitted:
			if job.Status != JobDone || job.Result == nil {
				t.Fatalf("Submit(%v) = %q (err=%q), want done on the submit", key, job.Status, job.Err)
			}
			return job
		case <-time.After(30 * time.Second):
			t.Fatalf("Submit(%v) did not return while its write-back was held", key)
			return Job{}
		}
	}
	for _, key := range []Key{msKey(3, 2), msKey(7, 1)} { // k = 7 and 8
		job := submit(key)
		select {
		case got := <-entered:
			if got != key {
				t.Fatalf("write-back of %v, want %v", got, key)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("no write-back of %v started", key)
		}
		if got, err := j.Get(job.ID); err != nil || got.Status != JobDone {
			t.Fatalf("%v during its write-back: %+v, %v; want done", key, got, err)
		}
	}

	// Both workers hold a write-back; fill the queue behind them.
	for j.runner.Submit(func() { <-release }) {
	}
	submit(msKey(5, 1))
	if st := j.Stats(); st.Completed != 3 || st.Running != 0 || st.WriteBacksSkipped != 1 {
		t.Fatalf("stats %+v, want Completed=3 Running=0 WriteBacksSkipped=1", st)
	}
	close(release)
	released = true
}

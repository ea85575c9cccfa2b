package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/perm"
	"repro/internal/pool"
)

// getBody sends one GET through the default client and returns the
// status and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestRunProfileSubmitAnswersDone submits cold profiles through Run at
// k = 7, 8 and 10 (k = 9 under -short and -race): each answers 200 done
// with its result in one request, and a poll of its job ID answers the
// same bytes from the ledger.
func TestRunProfileSubmitAnswersDone(t *testing.T) {
	s := New(Config{RequestTimeout: time.Minute, SampleInterval: -1})
	addr, _ := startRun(t, s, 10*time.Second)
	big := msKey(3, 3) // k = 10
	if testing.Short() || raceEnabled {
		big = msKey(2, 4) // k = 9
	}
	for _, key := range []Key{msKey(2, 3), msKey(7, 1), big} {
		base := "http://" + addr + "/v1/profile?"
		code, body := getBody(t, base+fmt.Sprintf("family=MS&l=%d&n=%d", key.L, key.N))
		var resp ProfileResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%v: %v", key, err)
		}
		if code != http.StatusOK || resp.Status != string(JobDone) || resp.Cached || resp.Result == nil {
			t.Fatalf("%v: submit = %d %s, want 200 done with a result", key, code, body)
		}
		hist := int64(0)
		for _, c := range resp.Result.Histogram {
			hist += c
		}
		if n := perm.Factorial(key.K()); resp.Result.Nodes != n || hist != n {
			t.Fatalf("%v: result covers %d nodes (histogram %d), want %d", key, resp.Result.Nodes, hist, n)
		}
		if pc, poll := getBody(t, base+"id="+resp.JobID); pc != http.StatusOK || string(poll) != string(body) {
			t.Fatalf("%v: poll of %s = %d %s, want the submit's answer %s", key, resp.JobID, pc, poll, body)
		}
	}
	if st := s.jobs.Stats(); st.Submitted != 3 || st.Completed != 3 || st.Coalesced != 0 {
		t.Fatalf("stats %+v, want three jobs, each run by its submit", st)
	}
}

// TestRunProfileWaitsEndAtDeadline holds a submit in each of its two waits
// through Run, and requires a 504 at the request deadline: with the one
// build slot held, and behind another submit's running job. That job runs
// to its end regardless, and its own submit answers 200 done.
func TestRunProfileWaitsEndAtDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	s := New(Config{ProfileWorkers: 1, RequestTimeout: timeout, SampleInterval: -1})
	addr, _ := startRun(t, s, 10*time.Second)
	base := "http://" + addr + "/v1/profile?family=MS&l=2&n=3"
	want504 := func(what string) {
		t.Helper()
		t0 := time.Now()
		code, body := getBody(t, base)
		if elapsed := time.Since(t0); code != http.StatusGatewayTimeout || elapsed < timeout || elapsed > timeout+2*time.Second {
			t.Fatalf("%s: %d %s after %v, want 504 at the %v deadline", what, code, body, elapsed, timeout)
		}
	}

	if !s.jobs.slots.TryEnter() {
		t.Fatal("fresh gate refused entry")
	}
	want504("slot wait")
	s.jobs.slots.Leave()
	if st := s.jobs.Stats(); st.Submitted != 0 || s.jobs.unfinished() != 0 {
		t.Fatalf("a withdrawn submit left a job: stats %+v", st)
	}

	release := holdNetwork(t, s.cache, msKey(2, 3))
	var g pool.Group
	first := 0
	g.Go(func() {
		resp, err := http.Get(base)
		if err != nil {
			t.Error(err)
			return
		}
		_ = resp.Body.Close()
		first = resp.StatusCode
	})
	waitFor(t, "the first submit's job runs", func() bool { return s.jobs.Stats().Running == 1 })
	want504("coalesced wait")
	release()
	g.Wait()
	if first != http.StatusOK {
		t.Fatalf("the running job's own submit = %d, want 200", first)
	}
}

// TestRunHangupEndsProfileWait holds the one build slot, sends a cold
// profile submit through Run, and closes the client socket while the
// submit waits: the connection's hang-up watch must end the wait with a
// 504 at once, long before RequestTimeout, as TestRunHangupEndsColdWait
// shows for a cold route. No job is left, and the goroutines the request
// started end.
func TestRunHangupEndsProfileWait(t *testing.T) {
	var access syncBuilder
	s := New(Config{ProfileWorkers: 1, RequestTimeout: 30 * time.Second, SampleInterval: -1, AccessLog: &access})
	addr, _ := startRun(t, s, 10*time.Second)
	if !s.jobs.slots.TryEnter() {
		t.Fatal("fresh gate refused entry")
	}
	defer s.jobs.slots.Leave()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(nc, "GET /v1/profile?family=MS&l=2&n=3 HTTP/1.1\r\nHost: scgd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the submit waits for a slot", func() bool { return s.jobs.unfinished() == 1 })
	// Among them: the connection's goroutine and its hang-up watch.
	waiting := runtime.NumGoroutine()
	t0 := time.Now()
	_ = nc.Close()
	waitFor(t, "an access record after the hang-up", func() bool { return access.String() != "" })
	elapsed := time.Since(t0)
	var rec AccessRecord
	if err := json.Unmarshal([]byte(access.String()), &rec); err != nil {
		t.Fatal(err)
	}
	t.Logf("access record %v after the hang-up", elapsed)
	if rec.Status != http.StatusGatewayTimeout || elapsed > 2*time.Second {
		t.Fatalf("record %+v %v after the hang-up; want a 504 within a few ms, long before the 30 s RequestTimeout", rec, elapsed)
	}
	if n := s.jobs.unfinished(); n != 0 {
		t.Fatalf("%d jobs left after the hang-up, want none", n)
	}
	waitFor(t, fmt.Sprintf("the goroutine count falls from %d by the connection and its watch", waiting), func() bool {
		return runtime.NumGoroutine() <= waiting-2
	})
}

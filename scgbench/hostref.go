package main

import (
	"net"
	"net/http"
	"time"
)

// The host's speed drifts: on a shared virtual machine the same code ran
// 2.5 times slower in some stretches than in others, for minutes at a
// time, and every process of a run saw the same stretch. hostRef measures
// that speed next to the workload, in the same process and the same
// stretch: a null HTTP round trip (the benchmark's client type against a
// handler of the benchmark's own that writes a two-byte JSON body) over
// its own loopback connection, timed in short blocks between the
// workload's ops. It is the same kind of work as the workloads' ops:
// syscalls, loopback TCP, the Go netpoller and scheduler. No program code
// runs in it, so a change to the program cannot move it. The end-to-end
// times are scaled by nullNominalNS over its median (see endToEndResult).
type hostRef struct {
	g      *loadgen
	url    string
	hs     *http.Server
	done   chan error
	nullNS []int64
	last   time.Time // end of the latest block
}

// nullNominalNS is the null round trip of the nominal host the end-to-end
// times are scaled to: about its median, with GOMAXPROCS=1, on the 2-vCPU
// KVM guest this benchmark was written on, in the stretch it was first
// measured in.
const nullNominalNS = 20000

const (
	refEvery = 10 * time.Millisecond // between reference blocks
	refCalls = 20                    // round trips per block
	refWarm  = 200                   // untimed round trips before the first block
)

func newHostRef() (*hostRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &hostRef{
		g:   newLoadgen(nil, ""),
		url: "http://" + ln.Addr().String() + "/null",
		hs: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte("{}\n")) // a failed write shows up as a client error
		})},
		done: make(chan error, 1),
	}
	go func() { r.done <- r.hs.Serve(ln) }()
	return r, nil
}

// block runs n null round trips and records each when record is set.
func (r *hostRef) block(n int, record bool) error {
	for i := 0; i < n; i++ {
		if _, err := r.g.getOK(r.url); err != nil {
			return err
		}
		if record {
			r.nullNS = append(r.nullNS, r.g.lastNS)
		}
	}
	return nil
}

// due runs a recorded block before the first op and then before every op
// that starts refEvery or more after the latest block. A nil hostRef (a
// traced pass) does nothing.
func (r *hostRef) due() error {
	if r == nil || time.Since(r.last) < refEvery {
		return nil
	}
	err := r.block(refCalls, true)
	r.last = time.Now()
	return err
}

// median is the median recorded round trip in nanoseconds.
func (r *hostRef) median() float64 {
	v := make([]float64, len(r.nullNS))
	for i, ns := range r.nullNS {
		v[i] = float64(ns)
	}
	return median(v)
}

// close stops the null server and waits until it has returned.
func (r *hostRef) close() error {
	r.g.closeIdle()
	if err := r.hs.Close(); err != nil {
		return err
	}
	if err := <-r.done; err != http.ErrServerClosed {
		return err
	}
	return nil
}

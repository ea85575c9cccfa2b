package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// The benchmark's closed loop hands each request between goroutines on
// the two CPUs, so a CPU sits idle for a moment on every op. On a virtual
// machine an idle vCPU halts, and waking it again waits for the host to
// schedule it: time the guest sees as steal. On a loaded 2-vCPU KVM host
// that wait, not the program, set the tail and the throughput of every
// workload: 25 to 45% of CPU time stolen while a workload ran, against 2%
// for a process that never idles. keepwarm holds every CPU busy at SCHED_IDLE
// priority, which runs only when nothing else can, so a vCPU never halts
// and the kernel preempts the spinner as soon as the measured process has
// work.

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// startKeepWarm starts the keep-warm process; stop ends it and waits for
// it. On failure the run goes on without it.
func startKeepWarm(self string) (stop func()) {
	cmd := exec.Command(self, "-keepwarm")
	cmd.Stderr = os.Stderr
	// A parent killed mid-run must not leave the spinners behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "scgbench: keep-warm not started: %v\n", err)
		return func() {}
	}
	return func() {
		_ = cmd.Process.Kill() // it may have exited already on an unsupported system
		_ = cmd.Wait()         // killed, so it always reports the signal
	}
}

// keepWarm spins one SCHED_IDLE thread per CPU until killed. It refuses to
// spin at normal priority: if a thread cannot be pinned and demoted, the
// process exits instead.
func keepWarm() {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1)
	errs := make(chan error, n)
	for cpu := 0; cpu < n; cpu++ {
		go func(cpu int) {
			runtime.LockOSThread()
			var mask [16]uint64 // a cpu_set_t of 1024 CPUs
			mask[cpu/64] = 1 << uint(cpu%64)
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
				errs <- fmt.Errorf("pin to CPU %d: %v", cpu, e)
				return
			}
			var param struct{ priority int32 }
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
				errs <- fmt.Errorf("SCHED_IDLE on CPU %d: %v", cpu, e)
				return
			}
			errs <- nil
			for {
				syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
			}
		}(cpu)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			fmt.Fprintf(os.Stderr, "scgbench: keep-warm: %v\n", err)
			os.Exit(1)
		}
	}
	select {}
}

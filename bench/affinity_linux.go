package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func oneCPU(cpu int) cpuMask {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	return m
}

// cpus lists the CPUs in the mask.
func (m cpuMask) cpus() []int {
	var out []int
	for i := 0; i < 64*len(m); i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// setAffinity restricts thread tid (0: the calling thread) to the mask.
func setAffinity(tid int, m cpuMask) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return errno
	}
	return nil
}

// affinity returns the calling thread's mask.
func affinity() (cpuMask, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return m, errno
	}
	return m, nil
}

// setProcessAffinity restricts every thread of this process to the mask;
// threads the runtime starts later inherit it from the thread that clones them.
func setProcessAffinity(m cpuMask) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may exit between the listing and the call.
		if err := setAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
		}
	}
	return nil
}

// spawnOn runs start on a thread restricted to cpu — a child inherits the
// affinity of the thread that forks it — and then hands the thread the mask
// after.
func spawnOn(cpu, after cpuMask, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, cpu); err != nil {
		return err
	}
	err := start()
	if rerr := setAffinity(0, after); err == nil {
		err = rerr
	}
	return err
}

// idlers keep the CPUs of a run from halting: one shell per CPU spinning under
// SCHED_IDLE, which runs only when nothing else wants the CPU. In a virtual
// machine an idle CPU halts and waking it goes through the host, whose answer
// takes tens of microseconds and changes by the minute. Every cross-CPU
// wake-up pays it: each request and reply of the http workloads, and each
// hand-off to the collector's worker on the in-process ones. Over four
// alternating pairs of runs http-mixed's median read went from 173–212 µs
// without idlers to 145–163 µs with them, and evolve-churn from 5.5–6.1k to
// 6.5–7.1k changes/s.
type idlers []*exec.Cmd

// schedIdle is SCHED_IDLE of <linux/sched.h>.
const schedIdle = 5

// maxIdlers keeps a run on a large machine from spinning on all of it.
const maxIdlers = 8

// startIdlers starts one idler on each CPU this process may run on. Where the
// kernel refuses, or there is no shell, it starts none: the run is noisier,
// not wrong.
func startIdlers(ctx context.Context) idlers {
	whole, err := affinity()
	if err != nil {
		return nil
	}
	var ids idlers
	for _, cpu := range whole.cpus() {
		if len(ids) == maxIdlers {
			break
		}
		idler := exec.CommandContext(ctx, "/bin/sh", "-c", "while :; do :; done")
		if err := spawnOn(oneCPU(cpu), whole, idler.Start); err != nil {
			break
		}
		ids = append(ids, idler)
		var prio int32 // SCHED_IDLE takes priority 0
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(idler.Process.Pid), schedIdle, uintptr(unsafe.Pointer(&prio))); errno != 0 {
			ids.stop() // at normal priority a spinner would take the CPU it is meant to keep awake
			return nil
		}
	}
	return ids
}

// stop kills the idlers and waits for them.
func (ids idlers) stop() {
	for _, idler := range ids {
		idler.Process.Kill() //nolint:errcheck // already gone is fine
		idler.Wait()         //nolint:errcheck // killed on purpose
	}
}

// cpuSplit gives the client and the server of an http workload one CPU each.
// Left to the scheduler, the two processes wander over both CPUs and a
// request's latency depends on whether its wake-ups cross CPUs: the same build
// measured 2.8k to 4.4k requests/s between half-second slices of one window.
type cpuSplit struct {
	whole          cpuMask
	client, server cpuMask
	procs          int // GOMAXPROCS to restore
	on             bool
}

// splitCPUs pins this process — the client — to the first CPU it may run on,
// with one P, and reserves the second for the server. With fewer than two
// CPUs, or where the kernel refuses, it does nothing and on stays false.
func splitCPUs() cpuSplit {
	whole, err := affinity()
	if err != nil {
		return cpuSplit{}
	}
	cpus := whole.cpus()
	if len(cpus) < 2 {
		return cpuSplit{}
	}
	s := cpuSplit{whole: whole, client: oneCPU(cpus[0]), server: oneCPU(cpus[1])}
	if err := setProcessAffinity(s.client); err != nil {
		setProcessAffinity(whole) //nolint:errcheck // best effort: undo a partial pin
		return cpuSplit{}
	}
	s.procs = runtime.GOMAXPROCS(1)
	s.on = true
	return s
}

// spawn starts the command on the server CPU; its runtime sizes GOMAXPROCS
// from the affinity it is born with.
func (s cpuSplit) spawn(start func() error) error {
	if !s.on {
		return start()
	}
	return spawnOn(s.server, s.client, start)
}

// undo gives this process its CPUs and its Ps back.
func (s cpuSplit) undo() {
	if s.on {
		setProcessAffinity(s.whole) //nolint:errcheck // the mask was valid when read
		runtime.GOMAXPROCS(s.procs)
	}
}

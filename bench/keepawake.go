package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// A halted virtual CPU takes the hypervisor to wake, and on this kind
// of host what that costs switches between two regimes that each last
// minutes: the same loopback read takes 0.023 ms in one and 0.036 ms in
// the other, the same batch 13 ms or 17 ms, and runs of one commit
// minutes apart disagree by more than any bound. No statistic taken
// within a run removes that. So while a workload runs, one child
// process per CPU, pinned to it, spins under SCHED_IDLE: the kernel
// runs it only when nothing else wants that CPU and preempts it the
// moment anything does, and the CPU never halts. The program under
// test is a different process and is not touched.

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// keepAwake starts the spinners and returns the function that stops
// them and waits for each to end. A spinner also ends by itself when
// this process does, because its standard input closes.
func keepAwake() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var cmds []*exec.Cmd
	var pipes []io.Closer
	stop = func() {
		for _, p := range pipes {
			p.Close()
		}
		for _, c := range cmds {
			c.Wait() // the exit status of a spinner told to stop says nothing
		}
	}
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	for _, cpu := range cpus {
		cmd := exec.Command(exe, "-keepawake", strconv.Itoa(cpu))
		in, err := cmd.StdinPipe()
		if err != nil {
			stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			stop()
			return nil, err
		}
		cmds, pipes = append(cmds, cmd), append(pipes, in)
	}
	return stop, nil
}

// cpuMask is a sched_setaffinity mask of 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on, which a cpuset
// need not number from zero.
func allowedCPUs() ([]int, error) {
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for cpu := range len(mask) * 64 {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus, nil
}

// spin is the child: it pins its thread to cpu, drops it to SCHED_IDLE
// and loops until standard input closes. It refuses to spin at normal
// priority, where it would take a CPU from the program.
func spin(cpu int) error {
	runtime.LockOSThread()
	var mask cpuMask
	if cpu >= len(mask)*64 {
		return fmt.Errorf("cpu %d is beyond the affinity mask", cpu)
	}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("pin to cpu %d: %w", cpu, errno)
	}
	var priority int32 // sched_param: SCHED_IDLE takes priority 0
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&priority))); errno != 0 {
		return fmt.Errorf("set SCHED_IDLE: %w", errno)
	}
	go func() {
		io.Copy(io.Discard, os.Stdin) // returns when the parent closes the pipe or dies
		os.Exit(0)
	}()
	for {
	}
}

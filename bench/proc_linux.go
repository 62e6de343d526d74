package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"unsafe"
)

// dieWithParent asks the kernel to SIGTERM the child when the thread that
// started it exits — in practice, when the parent process dies. The child
// turns SIGTERM into its ordinary clean-up path, so a killed benchmark
// leaves neither processes nor data directories behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
}

// allowedCPUs lists the CPUs this process may run on, ascending.
func allowedCPUs() ([]int, error) {
	var mask [16]uint64
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return nil, fmt.Errorf("bench: sched_getaffinity: %w", errno)
	}
	var cpus []int
	for c := 0; c < len(mask)*64; c++ {
		if mask[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// pinProcess restricts every thread of this process to the given CPUs.
// Threads started later inherit the mask from the thread that starts them,
// so two passes over /proc/self/task catch a thread born during the first.
func pinProcess(cpus []int) error {
	var mask [16]uint64 // 1024 CPUs
	for _, c := range cpus {
		if c < 0 || c >= len(mask)*64 {
			return fmt.Errorf("bench: cannot pin to CPU %d", c)
		}
		mask[c/64] |= 1 << (c % 64)
	}
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("bench: sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return nil
}

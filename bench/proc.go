package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat. Linux
// fixes it at 100 on every architecture Go runs on.
const clockTick = 100

// parseProcStat extracts user+system CPU time from the content of
// /proc/<pid>/stat. The comm field may contain spaces and parentheses, so
// fields are counted from the last ')'.
func parseProcStat(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("bench: /proc stat has no comm field: %q", stat)
	}
	// After the comm: state is field 3, utime field 14, stime field 15.
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: /proc stat has %d fields after comm, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bench: /proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bench: /proc stat stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// parseVmHWM extracts the peak resident set size in kB from the content
// of /proc/<pid>/status.
func parseVmHWM(status string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("bench: unexpected VmHWM line %q", line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("bench: /proc status has no VmHWM line")
}

// procCPU reads a process's cumulative user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// procPeakRSSMB reads a process's peak resident set size in MB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(string(b))
	return float64(kb) / 1024, err
}

// selfCPU is this process's own cumulative user+system CPU time: the load
// generator's share, reported so a generator-bound run is visible.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

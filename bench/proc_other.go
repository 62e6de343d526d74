//go:build !linux

package main

import "os/exec"

// dieWithParent has no portable form; stdin EOF still ends the child.
func dieWithParent(*exec.Cmd) {}

// allowedCPUs reports no CPUs, which leaves every process unpinned.
func allowedCPUs() ([]int, error) { return nil, nil }

// pinProcess is a no-op where CPU affinity has no portable form.
func pinProcess([]int) error { return nil }

package main

import (
	"os"
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	// A comm with spaces and a closing parenthesis: fields must be counted
	// from the last ')'. utime=1234 stime=66 ticks.
	stat := "4242 (be) nch (x) S 1 4242 4242 0 -1 4194304 100 0 0 0 1234 66 0 0 20 0 7 0 12345 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 13 * time.Second; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tbench\nVmPeak:\t 1234567 kB\nVmHWM:\t   15524 kB\nVmRSS:\t   12000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 15524 {
		t.Errorf("parseVmHWM = %d, %v", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
}

func TestProcSelf(t *testing.T) {
	// The live files parse too, and our own peak RSS is not zero.
	if _, err := procCPU(1 << 30); err == nil {
		t.Error("procCPU of a process that cannot exist succeeded")
	}
	rss, err := procPeakRSSMB(os.Getpid())
	if err != nil || rss <= 0 {
		t.Errorf("own peak RSS = %v, %v", rss, err)
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
}

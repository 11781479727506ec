//go:build !linux

package main

import "errors"

// Holding the process to a CPU needs sched_setaffinity; elsewhere the
// benchmark runs on one P wherever the scheduler puts it, and the host
// block says so.

type cpuMask struct{}

func allowedCPUs() ([]int, cpuMask, error) {
	return nil, cpuMask{}, errors.New("CPU affinity is not supported on this platform")
}

func moveTo(int) error { return nil }

func setProcessAffinity(cpuMask) error { return nil }

package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask, wide enough for 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func affinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// setProcessAffinity gives every thread of the process the mask m. A
// thread inherits its creator's mask, so passes repeat until one finds
// every thread already there: a thread started by a not yet confined one
// is caught by the next pass.
func setProcessAffinity(m cpuMask) error {
	for pass := 0; pass < 8; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		moved := 0
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			have, err := affinity(tid)
			if err != nil {
				continue // the thread exited between the listing and the call
			}
			if have == m {
				continue
			}
			if err := setAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
				return fmt.Errorf("confining thread %d: %w", tid, err)
			}
			moved++
		}
		if moved == 0 {
			return nil
		}
	}
	return fmt.Errorf("threads kept appearing outside the CPU mask")
}

// allowedCPUs lists the CPUs the process may use, ascending, with the
// mask they came from.
func allowedCPUs() ([]int, cpuMask, error) {
	m, err := affinity(0)
	if err != nil {
		return nil, m, err
	}
	var cpus []int
	for cpu := 0; cpu < len(m)*64; cpu++ {
		if m.has(cpu) {
			cpus = append(cpus, cpu)
		}
	}
	if len(cpus) == 0 {
		return nil, m, fmt.Errorf("empty CPU mask")
	}
	return cpus, m, nil
}

// moveTo moves every thread of the process onto cpu.
func moveTo(cpu int) error {
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	return setProcessAffinity(one)
}

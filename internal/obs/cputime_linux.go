//go:build linux

package obs

import "syscall"

// threadCPUNanos returns the calling OS thread's consumed CPU time
// (user + system) in nanoseconds, or 0 if the clock is unavailable.
// Granularity is the kernel's rusage accounting (microseconds).
func threadCPUNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// threadID returns the calling OS thread's id, the owner of the clock
// threadCPUNanos reads.
func threadID() int { return syscall.Gettid() }

// processCPUSeconds returns the whole process's consumed CPU time
// (user + system) in seconds, or 0 if unavailable.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

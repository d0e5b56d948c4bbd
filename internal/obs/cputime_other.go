//go:build !linux

package obs

// threadCPUNanos is unavailable off Linux; spans record no CPU delta.
func threadCPUNanos() int64 { return 0 }

// threadID is unavailable off Linux; with no thread clock it is moot.
func threadID() int { return 0 }

// processCPUSeconds is unavailable off Linux.
func processCPUSeconds() float64 { return 0 }

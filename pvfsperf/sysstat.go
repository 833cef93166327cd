package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sysSnap is the process-wide resource state at one instant; windows are
// measured as the difference of two.
type sysSnap struct {
	at         time.Time
	cpu        time.Duration // user + system
	mallocs    uint64
	allocBytes uint64
	wchar      int64 // bytes passed to write-like syscalls
	syscw      int64 // write-like syscalls
}

func takeSysSnap() sysSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := sysSnap{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	io := procFields("/proc/self/io")
	s.wchar, s.syscw = io["wchar"], io["syscw"]
	s.at = time.Now()
	return s
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	return float64(procFields("/proc/self/status")["VmHWM"]) / 1024
}

// procFields parses the "key: <integer> [unit]" lines of a /proc file;
// lines of another shape are skipped, and a missing file yields no fields.
func procFields(path string) map[string]int64 {
	out := make(map[string]int64)
	f, err := os.Open(path)
	if err != nil {
		return out
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, rest, ok := strings.Cut(sc.Text(), ":")
		fields := strings.Fields(rest)
		if !ok || len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
			out[key] = v
		}
	}
	return out
}

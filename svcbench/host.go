package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// fingerprint describes the host, so results are compared only between
// like hosts. GOMAXPROCS is the unpinned default the run used.
func fingerprint() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	quota := "unknown"
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		quota = strings.TrimSpace(string(b))
	}
	env := os.Getenv("GOMAXPROCS")
	if env == "" {
		env = "unset"
	}
	// NumCPU counts the CPUs in the process's affinity mask (what nproc
	// prints); online counts every CPU the kernel has up.
	online := 0
	if b, err := os.ReadFile("/sys/devices/system/cpu/online"); err == nil {
		online = countCPUList(strings.TrimSpace(string(b)))
	}
	return fmt.Sprintf("cpu=%q nproc=%d online=%d GOMAXPROCS=%d (env %s) cgroup_cpu_max=%q go=%s",
		model, runtime.NumCPU(), online, runtime.GOMAXPROCS(0), env, quota, runtime.Version())
}

// countCPUList counts the CPUs of a kernel CPU list such as "0-3,6".
func countCPUList(s string) int {
	n := 0
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		var a, b int
		if _, err := fmt.Sscan(lo, &a); err != nil {
			return 0
		}
		b = a
		if isRange {
			if _, err := fmt.Sscan(hi, &b); err != nil {
				return 0
			}
		}
		n += b - a + 1
	}
	return n
}

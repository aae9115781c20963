package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// host identifies the machine and code a result was measured on, so
// two result sets are only compared knowingly across hosts or commits.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Commit is the short commit hash of the checkout, suffixed -dirty
	// when tracked files differ from it, or "unknown" outside a git
	// work tree (the same rule scripts/bench.sh uses).
	Commit string `json:"commit"`
}

func fingerprint() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reports the commit of the working directory, only when the
// working directory is itself the top of a git work tree: a checkout
// without .git nested in some other repository is "unknown".
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil || !samePath(strings.TrimSpace(string(top)), wd) {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(out))
	if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
		c += "-dirty"
	}
	return c
}

func samePath(a, b string) bool {
	ra, errA := filepath.EvalSymlinks(a)
	rb, errB := filepath.EvalSymlinks(b)
	return errA == nil && errB == nil && ra == rb
}

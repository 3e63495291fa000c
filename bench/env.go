package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// env stamps a result with what produced it, so two results are only
// ever compared knowingly across machines or commits.
type env struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
	Network    string `json:"network"`
}

func stampEnv() env {
	e := env{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     "unknown",
		Network:    "loopback",
	}
	// A checkout that is not a git repository (an exported tree) simply
	// has no SHA to report.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			e.GitDirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

func (e env) String() string {
	sha := e.GitSHA
	if e.GitDirty {
		sha += "+dirty"
	}
	return fmt.Sprintf("cpu=%s nproc=%d GOMAXPROCS=%d %s git=%s network=%s",
		e.CPUModel, e.NProc, e.GOMAXPROCS, e.GoVersion, sha, e.Network)
}

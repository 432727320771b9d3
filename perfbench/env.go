package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/engine"
)

// envInfo is the run environment recorded next to every result, so a
// comparison can see whether both sides ran on the same machine shape
// and toolchain.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Cache      string `json:"cache"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func environment() envInfo {
	c := engine.DetectCache()
	return envInfo{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Cache:      fmt.Sprintf("L2=%dKiB,LLC=%dKiB", c.L2>>10, c.LLC>>10),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
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
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree (an exported checkout carries no history).
func gitCommit() string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	// Stop git at the checkout: never report a surrounding repository.
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

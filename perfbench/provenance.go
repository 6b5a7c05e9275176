package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// provenance identifies the code and host a result set came from.
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Platform   string `json:"platform"`
	Seed       uint64 `json:"seed"`
}

func collectProvenance(seed uint64) provenance {
	p := provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// hostFingerprint names the host half of the provenance: two result sets
// are comparable only when it matches, whatever their commits.
func (p provenance) hostFingerprint() string {
	return strings.Join([]string{p.CPUModel, strconv.Itoa(p.NProc),
		strconv.Itoa(p.GOMAXPROCS), p.GoVersion, p.Platform}, "|")
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

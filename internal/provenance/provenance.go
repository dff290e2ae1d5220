// Package provenance records where a benchmark report's numbers come
// from: the host's CPU count, the Go toolchain, and the source revision.
package provenance

import (
	"runtime"
	"runtime/debug"
)

// Provenance is embedded in every BENCH_*.json report struct; its
// fields marshal inline at the top of the report.
type Provenance struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// Current describes this process and the binary it runs.
func Current() Provenance {
	return Provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// commit is the VCS revision stamped into this binary, suffixed
// "+modified" when it was built from a tree with uncommitted changes,
// or "unknown" when the build carries no VCS stamp (go run, or a tree
// outside git).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if modified && rev != "unknown" {
		rev += "+modified"
	}
	return rev
}

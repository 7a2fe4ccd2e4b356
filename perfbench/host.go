package main

import (
	"runtime"
	"runtime/debug"
)

// Host identifies the measuring machine in every result: runs are only
// comparable on the same CPU, core count and build level.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	GoVersion  string `json:"go_version"`
	PCLMULQDQ  bool   `json:"pclmulqdq"`
	AVX512     bool   `json:"avx512f"`
}

func hostInfo() Host {
	h := Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOAMD64:    "-",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	h.CPU, h.PCLMULQDQ, h.AVX512 = cpuFeatures()
	return h
}

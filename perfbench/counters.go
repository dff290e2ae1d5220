package main

import (
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/script"
)

// procCounters is a reading of the process's own counters.
type procCounters struct {
	// cpu is user+sys CPU time from getrusage.
	cpu time.Duration
	// gcCycles, gcCPU, totalCPU and allocBytes come from runtime/metrics.
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
	allocBytes uint64
}

func readProc() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return procCounters{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCycles:   s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		allocBytes: s[3].Value.Uint64(),
	}
}

// plus adds the growth of the counters from a to b.
func (p procCounters) plus(a, b procCounters) procCounters {
	return procCounters{
		cpu:        p.cpu + b.cpu - a.cpu,
		gcCycles:   p.gcCycles + b.gcCycles - a.gcCycles,
		gcCPU:      p.gcCPU + b.gcCPU - a.gcCPU,
		totalCPU:   p.totalCPU + b.totalCPU - a.totalCPU,
		allocBytes: p.allocBytes + b.allocBytes - a.allocBytes,
	}
}

// Names of the deployment counters readCounters collects.
const (
	masterBytes     = "master_bytes"    // cloud master TCP bytes, both directions
	wireBytes       = "wire_bytes"      // bytes received by the master and the edges
	changesRecv     = "changes_recv"    // CRDT changes received, all endpoints
	changesApplied  = "changes_applied" // of those, integrated (not duplicates)
	framesSent      = "frames_sent"
	windowStalls    = "window_stalls"
	readsRun        = "reads"  // invocations on the shared read path
	writesRun       = "writes" // invocations on the exclusive write path
	mispredicts     = "mispredicts"
	walBytes        = "wal_bytes" // durable store bytes appended, all nodes
	walAppends      = "wal_appends"
	framesAllocated = "vm_frames_allocated"
	cacheHits       = "vm_bytecode_cache_hits"
)

// counters is a reading of the deployment's public statistics, by the
// names above.
type counters map[string]int64

func readCounters(dep *core.Deployment) counters {
	m := dep.TCPMaster.Stats()
	vm := script.ReadVMStats()
	c := counters{
		masterBytes:     m.BytesSent + m.BytesReceived,
		wireBytes:       m.BytesReceived,
		changesRecv:     m.ChangesRecv,
		changesApplied:  m.ChangesApplied,
		framesSent:      m.FramesSent,
		windowStalls:    m.WindowStalls,
		framesAllocated: vm.FramesAllocated,
		cacheHits:       vm.BytecodeCacheHits,
	}
	for _, e := range dep.Edges {
		s := e.TCP.Stats()
		c[wireBytes] += s.BytesReceived
		c[changesRecv] += s.ChangesRecv
		c[changesApplied] += s.ChangesApplied
		c[framesSent] += s.FramesSent
		c[windowStalls] += s.WindowStalls
		r, w, mis := e.Server.RWStats()
		c[readsRun] += r
		c[writesRun] += w
		c[mispredicts] += mis
	}
	for _, s := range dep.Stores {
		st := s.Stats()
		c[walBytes] += st.AppendedBytes
		c[walAppends] += st.Appends
	}
	return c
}

// addGrowth adds the growth of every counter from a to b.
func (c counters) addGrowth(a, b counters) {
	for k, v := range b {
		c[k] += v - a[k]
	}
}

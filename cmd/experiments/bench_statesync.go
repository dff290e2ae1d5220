package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/crdt"
	"repro/internal/durable"
	"repro/internal/provenance"
	"repro/internal/statesync"
)

// statesyncReport is the schema of BENCH_statesync.json: the
// high-throughput replication path measured end to end — WAL group
// commit scaling with concurrent writers, pooled vs baseline change
// encoding, and TCP replication throughput across frame batch sizes
// and compression settings.
type statesyncReport struct {
	provenance.Provenance

	// GroupCommit is Append throughput on one FsyncAlways store vs
	// concurrent writer count; the writers=8 over writers=1 ratio is the
	// group-commit win (each batch shares a single fsync).
	GroupCommit []groupCommitBench `json:"group_commit"`
	// Encode contrasts the allocating encoder with the pooled zero-copy
	// path on the same 64-change batch, each row the median of
	// encodePasses benchmark passes.
	Encode encodePair `json:"encode"`
	// TCP is wall-clock replication of a fixed change volume from one
	// edge to the master over loopback, per frame-batching/compression
	// configuration.
	TCP []tcpBench `json:"tcp"`
}

type groupCommitBench struct {
	Writers    int     `json:"writers"`
	Appends    int     `json:"appends"`
	AppendsSec float64 `json:"appends_sec"`
	// GroupCommits is the number of fsync rounds that carried those
	// appends; Appends/GroupCommits is the mean commit batch.
	GroupCommits int64 `json:"group_commits"`
	// SpeedupX is AppendsSec over the writers=1 baseline.
	SpeedupX float64 `json:"speedup_x"`
}

type encodeBench struct {
	NsOp     int64 `json:"ns_op"`
	BytesOp  int64 `json:"bytes_op"`
	AllocsOp int64 `json:"allocs_op"`
}

type encodePair struct {
	Baseline encodeBench `json:"baseline"`
	Pooled   encodeBench `json:"pooled"`
}

type tcpBench struct {
	BatchChanges int  `json:"batch_changes"`
	Compression  bool `json:"compression"`
	Changes      int  `json:"changes"`
	// ChangesSec is replicated changes per wall-clock second (commit on
	// the edge through convergence at the master); BytesSec is the edge
	// outbound wire rate over the same window.
	ChangesSec float64 `json:"changes_sec"`
	BytesSec   float64 `json:"bytes_sec"`
	BytesSent  int64   `json:"bytes_sent"`
	FramesSent int64   `json:"frames_sent"`
	OpsElided  int64   `json:"ops_elided"`
}

// benchGroupCommit measures concurrent Append throughput under
// FsyncAlways: every writer appends perWriter single-change records.
func benchGroupCommit(dir string, writers, perWriter int) (groupCommitBench, error) {
	type rec struct{ chs []crdt.Change }
	work := make([][]rec, writers)
	for w := 0; w < writers; w++ {
		d := crdt.NewDoc(crdt.ActorID(fmt.Sprintf("gc%d", w)))
		prev := 0
		for i := 0; i < perWriter; i++ {
			if err := d.PutScalar(crdt.RootObj, "k", float64(i)); err != nil {
				return groupCommitBench{}, err
			}
			d.Commit("")
			chs := d.GetChanges(nil)
			work[w] = append(work[w], rec{chs[prev:]})
			prev = len(chs)
		}
	}
	st, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		return groupCommitBench{}, err
	}
	defer st.Close()
	errs := make([]error, writers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, r := range work[w] {
				if err := st.Append(map[string][]crdt.Change{"json": r.chs}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return groupCommitBench{}, err
		}
	}
	total := writers * perWriter
	return groupCommitBench{
		Writers:      writers,
		Appends:      total,
		AppendsSec:   float64(total) / elapsed.Seconds(),
		GroupCommits: st.Stats().GroupCommits,
	}, nil
}

// benchEncode contrasts EncodeChangesBinary (one allocation per call)
// with the pooled buffer path (zero steady-state allocations).
func benchEncode() encodePair {
	d := crdt.NewDoc("enc")
	for i := 0; i < 64; i++ {
		_ = d.PutScalar(crdt.RootObj, fmt.Sprintf("k%d", i%8), float64(i))
		_ = d.PutScalar(crdt.RootObj, "seq", float64(i))
		d.Commit("")
	}
	chs := d.GetChanges(nil)
	// One testing.Benchmark pass spreads by up to 60% on a shared host,
	// so each row is the median of encodePasses passes.
	median := func(f func(b *testing.B)) encodeBench {
		runs := make([]encodeBench, encodePasses)
		for i := range runs {
			res := testing.Benchmark(f)
			runs[i] = encodeBench{
				NsOp:     res.NsPerOp(),
				BytesOp:  res.AllocedBytesPerOp(),
				AllocsOp: res.AllocsPerOp(),
			}
		}
		slices.SortFunc(runs, func(a, b encodeBench) int { return cmp.Compare(a.NsOp, b.NsOp) })
		return runs[len(runs)/2]
	}
	base := median(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = crdt.EncodeChangesBinary(chs)
		}
	})
	pooled := median(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := crdt.GetEncodeBuffer()
			_ = buf.AppendChanges(chs)
			buf.Release()
		}
	})
	return encodePair{Baseline: base, Pooled: pooled}
}

// encodePasses is the number of benchmark passes benchEncode takes per
// row.
const encodePasses = 5

// benchTCP replicates `changes` committed changes from one edge to the
// master over loopback and reports throughput for the given transport
// settings.
func benchTCP(changes, batch int, compression bool) (tcpBench, error) {
	master, err := statesync.NewReplicaState("bench-cloud")
	if err != nil {
		return tcpBench{}, err
	}
	cfg := statesync.DefaultTCPConfig(2 * time.Millisecond)
	cfg.MaxBatchChanges = batch
	cfg.Compression = compression
	srv, err := statesync.ServeMasterConfig("127.0.0.1:0", &statesync.Endpoint{Name: "cloud", State: master}, cfg)
	if err != nil {
		return tcpBench{}, err
	}
	defer srv.Close()
	st, err := master.Fork("bench-edge")
	if err != nil {
		return tcpBench{}, err
	}
	edge, err := statesync.DialEdgeConfig(srv.Addr(), &statesync.Endpoint{Name: "edge", State: st}, cfg)
	if err != nil {
		return tcpBench{}, err
	}
	defer edge.Close()

	start := time.Now()
	edge.Do(func() {
		for i := 0; i < changes; i++ {
			// A modestly wide payload per change so compression has
			// something to bite on; distinct keys so coalescing does not
			// collapse the volume under the batching measurement.
			if err := st.JSON.PutScalar("root", fmt.Sprintf("key-%06d", i), float64(i)); err != nil {
				return
			}
			st.JSON.Commit("bench payload: edge-originated state update")
		}
	})
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		conv := false
		srv.Do(func() { edge.Do(func() { conv = master.Converged(st) }) })
		if conv {
			break
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	es := edge.Stats()
	return tcpBench{
		BatchChanges: batch,
		Compression:  compression,
		Changes:      changes,
		ChangesSec:   float64(changes) / elapsed.Seconds(),
		BytesSec:     float64(es.BytesSent) / elapsed.Seconds(),
		BytesSent:    es.BytesSent,
		FramesSent:   es.FramesSent,
		OpsElided:    es.OpsElided,
	}, nil
}

// runBenchStatesync measures the replication path and writes the
// report to outPath.
func runBenchStatesync(outPath string) error {
	rep := statesyncReport{Provenance: provenance.Current()}

	gcDir, err := os.MkdirTemp("", "edgstr-bench-gc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(gcDir)
	for _, writers := range []int{1, 2, 4, 8} {
		gb, err := benchGroupCommit(fmt.Sprintf("%s/w%d", gcDir, writers), writers, 200)
		if err != nil {
			return fmt.Errorf("group commit bench (%d writers): %w", writers, err)
		}
		rep.GroupCommit = append(rep.GroupCommit, gb)
	}
	base := rep.GroupCommit[0].AppendsSec
	for i := range rep.GroupCommit {
		rep.GroupCommit[i].SpeedupX = rep.GroupCommit[i].AppendsSec / base
	}

	rep.Encode = benchEncode()

	for _, c := range []struct {
		batch    int
		compress bool
	}{
		{1, false},
		{16, false},
		{64, false},
		{64, true},
	} {
		tb, err := benchTCP(2000, c.batch, c.compress)
		if err != nil {
			return fmt.Errorf("tcp bench (batch=%d compress=%v): %w", c.batch, c.compress, err)
		}
		rep.TCP = append(rep.TCP, tb)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		return err
	}
	for _, g := range rep.GroupCommit {
		fmt.Printf("group commit (%d writers): %.0f appends/sec (%.1fx, %d rounds)\n",
			g.Writers, g.AppendsSec, g.SpeedupX, g.GroupCommits)
	}
	fmt.Printf("encode: baseline %d allocs/op, pooled %d allocs/op\n",
		rep.Encode.Baseline.AllocsOp, rep.Encode.Pooled.AllocsOp)
	for _, tb := range rep.TCP {
		fmt.Printf("tcp (batch=%2d compress=%-5v): %.0f changes/sec, %.0f bytes/sec\n",
			tb.BatchChanges, tb.Compression, tb.ChangesSec, tb.BytesSec)
	}
	fmt.Println("wrote", outPath)
	return nil
}

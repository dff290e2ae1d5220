package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/crdt"
	"repro/internal/durable"
	"repro/internal/provenance"
)

// durableReport is the schema of BENCH_durable.json: the WAL append
// throughput under each fsync policy and the recovery-time curve as the
// log grows. Recorded so durability-layer regressions are visible in
// review alongside BENCH_pipeline.json.
type durableReport struct {
	provenance.Provenance
	Append []appendBench `json:"append"`
	// Recovery is the Open() cost as a function of WAL length, measured
	// on logs written without compaction (worst case: full replay).
	Recovery []recoveryBench `json:"recovery"`
}

type appendBench struct {
	Fsync string `json:"fsync"`
	// NsOp is the cost of one Append of a single committed change,
	// including the frame encode, write, and (policy-dependent) sync.
	NsOp       int64   `json:"ns_op"`
	AppendsSec float64 `json:"appends_sec"`
	BytesOp    int64   `json:"bytes_op"`
}

type recoveryBench struct {
	Frames int `json:"frames"`
	// RecoveryMS is the wall-clock Open() recovery time (snapshot load +
	// frame replay + state rebuild) for a WAL of this length.
	RecoveryMS float64 `json:"recovery_ms"`
	Replayed   int     `json:"replayed_frames"`
}

// benchChanges builds n single-change records to feed the WAL. Each
// record is the delta since the previous heads, so it holds only its
// own change and not the history before it.
func benchChanges(n int) ([][]crdt.Change, error) {
	d := crdt.NewDoc("bench")
	out := make([][]crdt.Change, 0, n)
	for i := 0; i < n; i++ {
		since := d.Heads()
		if err := d.PutScalar(crdt.RootObj, "k", float64(i)); err != nil {
			return nil, err
		}
		d.Commit("")
		out = append(out, d.GetChanges(since))
	}
	return out, nil
}

// benchAppend measures one-change Append calls under the given policy.
func benchAppend(dir string, policy durable.FsyncPolicy) (testing.BenchmarkResult, error) {
	records, err := benchChanges(1)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	var openErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.StopTimer()
		st, err := durable.Open(filepath.Join(dir, policy.String(), fmt.Sprint(b.N)), durable.Options{
			Fsync:      policy,
			FsyncEvery: 10 * time.Millisecond,
		})
		if err != nil {
			openErr = err
			b.Skip(err)
		}
		defer st.Close()
		b.StartTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Append(map[string][]crdt.Change{"json": records[0]}); err != nil {
				openErr = err
				b.Skip(err)
			}
		}
	})
	return res, openErr
}

// benchRecovery writes a WAL of n frames, closes it, and times Open.
func benchRecovery(dir string, n int) (recoveryBench, error) {
	sub := filepath.Join(dir, fmt.Sprintf("recover-%d", n))
	records, err := benchChanges(n)
	if err != nil {
		return recoveryBench{}, err
	}
	st, err := durable.Open(sub, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		return recoveryBench{}, err
	}
	for _, rec := range records {
		if err := st.Append(map[string][]crdt.Change{"json": rec}); err != nil {
			st.Close()
			return recoveryBench{}, err
		}
	}
	if err := st.Close(); err != nil {
		return recoveryBench{}, err
	}
	st2, err := durable.Open(sub, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		return recoveryBench{}, err
	}
	defer st2.Close()
	rec := st2.Recovery()
	return recoveryBench{
		Frames:     n,
		RecoveryMS: float64(rec.Duration.Microseconds()) / 1000,
		Replayed:   rec.ReplayedFrames,
	}, nil
}

// runBenchDurable measures the durability layer and writes the report
// to outPath.
func runBenchDurable(outPath string) error {
	dir, err := os.MkdirTemp("", "edgstr-bench-durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rep := durableReport{Provenance: provenance.Current()}
	for _, policy := range []durable.FsyncPolicy{durable.FsyncAlways, durable.FsyncInterval, durable.FsyncNever} {
		res, err := benchAppend(dir, policy)
		if err != nil {
			return fmt.Errorf("append bench (%s): %w", policy, err)
		}
		ns := res.NsPerOp()
		rep.Append = append(rep.Append, appendBench{
			Fsync:      policy.String(),
			NsOp:       ns,
			AppendsSec: 1e9 / float64(ns),
			BytesOp:    res.AllocedBytesPerOp(),
		})
	}
	for _, n := range []int{100, 1000, 5000, 20000} {
		rb, err := benchRecovery(dir, n)
		if err != nil {
			return fmt.Errorf("recovery bench (%d frames): %w", n, err)
		}
		rep.Recovery = append(rep.Recovery, rb)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		return err
	}
	for _, a := range rep.Append {
		fmt.Printf("wal append (%-8s): %.0f appends/sec\n", a.Fsync, a.AppendsSec)
	}
	for _, r := range rep.Recovery {
		fmt.Printf("recovery (%6d frames): %.2fms\n", r.Frames, r.RecoveryMS)
	}
	fmt.Println("wrote", outPath)
	return nil
}

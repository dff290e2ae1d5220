package core

import (
	"fmt"
	"path/filepath"

	"repro/internal/crdt"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/statesync"
)

// DurabilityConfig persists every replica's CRDT state to disk — a
// write-ahead log plus snapshot compaction per node — and recovers it
// on the next deployment over the same directory. The zero value keeps
// the deployment in-memory only.
type DurabilityConfig struct {
	// Dir is the root data directory; each node writes to its own
	// subdirectory (cloud/, edge-1/, …). Empty disables durability.
	Dir string
	// Fsync selects the WAL durability/throughput trade-off (default
	// FsyncAlways: a change is on disk before it is acknowledged).
	Fsync durable.FsyncPolicy
	// SnapshotEvery compacts a node's WAL into a snapshot after this
	// many newly persisted changes (0 = never compact automatically).
	SnapshotEvery int
}

// Enabled reports whether the deployment persists state.
func (c DurabilityConfig) Enabled() bool { return c.Dir != "" }

// nodeStore opens the durable store for one named node under the
// durability root and, when the directory holds a previous incarnation,
// recovers its replica state. A nil *ReplicaState means a fresh start:
// either the directory held nothing, or — with recoverErr set — it held
// data that RecoverReplicaState rejected, which counts one
// durable.recovery.fallback.
func (c DurabilityConfig) nodeStore(node string, actor crdt.ActorID, o *obs.Obs) (store *durable.Store, state *statesync.ReplicaState, recoverErr, err error) {
	store, err = durable.Open(filepath.Join(c.Dir, node), durable.Options{
		Fsync: c.Fsync,
		Obs:   o,
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: durable store %s: %w", node, err)
	}
	rec := store.Recovery()
	if rec.Empty() {
		return store, nil, nil, nil
	}
	state, recoverErr = statesync.RecoverReplicaState(actor, rec)
	if recoverErr != nil {
		// The directory held data but not a loadable replica (e.g. the
		// WAL was damaged right at the container-creation prefix). Start
		// fresh — the node rejoins via full resync and the log
		// repopulates — rather than refusing to deploy, but say so.
		o.Counter("durable.recovery.fallback").Add(1)
		return store, nil, recoverErr, nil
	}
	return store, state, nil, nil
}

// durableNode is what nodeState did for one node's store, in deployment
// order, for Observe.
type durableNode struct {
	name       string
	recovered  bool
	recoverErr error
}

// nodeState resolves one node's replica state under the durability
// config: without durability it just builds fresh(); with it, the
// node's store is opened (and registered for Stop to close), a previous
// incarnation's state is recovered when the directory holds one, and a
// Persister with the configured snapshot cadence wraps the store.
// recovered reports which path was taken.
func (d *Deployment) nodeState(cfg DurabilityConfig, node string, actor crdt.ActorID,
	fresh func() (*statesync.ReplicaState, error)) (*statesync.ReplicaState, *statesync.Persister, bool, error) {
	if !cfg.Enabled() {
		st, err := fresh()
		return st, nil, false, err
	}
	store, recoveredState, recoverErr, err := cfg.nodeStore(node, actor, d.Obs)
	if err != nil {
		return nil, nil, false, err
	}
	d.Stores[node] = store
	recovered := recoveredState != nil
	d.durableNodes = append(d.durableNodes, durableNode{name: node, recovered: recovered, recoverErr: recoverErr})
	p := statesync.NewPersister(store, cfg.SnapshotEvery)
	if recovered {
		return recoveredState, p, true, nil
	}
	st, err := fresh()
	return st, p, false, err
}

// DurabilityObservation is one node's persistence record in the
// introspection snapshot.
type DurabilityObservation struct {
	Node string `json:"node"`
	// Recovered reports whether this deployment resumed the node from a
	// previous incarnation's data; Torn whether recovery had to discard
	// a damaged WAL tail or snapshot.
	Recovered bool `json:"recovered"`
	Torn      bool `json:"torn,omitempty"`
	// RecoveryError is why the node started fresh although its data
	// directory held a log: the recovered changes did not rebuild a
	// replica (each such start counts one durable.recovery.fallback).
	RecoveryError  string `json:"recovery_error,omitempty"`
	ReplayedFrames int    `json:"replayed_frames"`
	// RecoveryMS is the wall-clock recovery time in milliseconds.
	RecoveryMS float64 `json:"recovery_ms"`
	// WAL I/O since the store opened.
	Appends   int64 `json:"appends"`
	Fsyncs    int64 `json:"fsyncs"`
	Snapshots int64 `json:"snapshots"`
}

// observeDurability snapshots every node store for Observe.
func (d *Deployment) observeDurability() []DurabilityObservation {
	out := make([]DurabilityObservation, 0, len(d.durableNodes))
	for _, n := range d.durableNodes {
		store := d.Stores[n.name]
		rec, stats := store.Recovery(), store.Stats()
		ob := DurabilityObservation{
			Node:           n.name,
			Recovered:      n.recovered,
			Torn:           rec.Torn,
			ReplayedFrames: rec.ReplayedFrames,
			RecoveryMS:     float64(rec.Duration.Microseconds()) / 1000,
			Appends:        stats.Appends,
			Fsyncs:         stats.Fsyncs,
			Snapshots:      stats.Snapshots,
		}
		if n.recoverErr != nil {
			ob.RecoveryError = n.recoverErr.Error()
		}
		out = append(out, ob)
	}
	return out
}

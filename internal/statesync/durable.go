package statesync

import (
	"fmt"
	"sync"

	"repro/internal/crdt"
	"repro/internal/durable"
)

// This file wires replicas to the durable WAL (internal/durable). A
// Persister tracks the heads already on disk and appends only what each
// replica state holds beyond them — so every CRDT change reaches the
// log exactly once, whether it originated locally or arrived from a
// peer. The sync runtime persists before acknowledging (Endpoint below)
// and a recovered replica re-handshakes from its durable heads, so a
// crash between apply and ack costs at most a redelivery the CRDT layer
// already tolerates, never a lost or phantom ack.

// Persister appends a replica's new changes to a durable store and
// periodically compacts the log into a snapshot. Safe for concurrent
// use.
type Persister struct {
	store *durable.Store
	// snapshotEvery compacts after this many changes hit the WAL
	// (0 = never compact automatically).
	snapshotEvery int

	mu        sync.Mutex
	watermark Heads // persisted knowledge per component
	pending   int   // changes appended since the last snapshot
	// synced is the state's components at the last Sync that left the
	// WAL holding all of them, with their Version() readings then.
	synced componentVersions
}

// componentVersions identifies a replica state's history: its three
// component documents and their mutation counters. While the reading
// does not move, no component has gained a change.
type componentVersions struct {
	docs [3]*crdt.Doc
	vers [3]uint64
}

func readComponentVersions(state *ReplicaState) componentVersions {
	c := componentVersions{docs: [3]*crdt.Doc{state.JSON, state.Tables.Doc(), state.Files.Doc()}}
	for i, d := range c.docs {
		c.vers[i] = d.Version()
	}
	return c
}

// NewPersister wraps an open store, resuming the persisted-heads
// watermark from what the store recovered. snapshotEvery > 0 enables
// automatic compaction after that many newly persisted changes.
func NewPersister(store *durable.Store, snapshotEvery int) *Persister {
	return &Persister{
		store:         store,
		snapshotEvery: snapshotEvery,
		watermark:     Heads(store.Recovery().ComponentHeads()),
	}
}

// Store returns the underlying durable store.
func (p *Persister) Store() *durable.Store { return p.store }

// Heads returns the persisted knowledge — what the replica can claim to
// durably hold when re-handshaking with a peer.
func (p *Persister) Heads() Heads {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := Heads{}
	for comp, vv := range p.watermark {
		out[comp] = vv.Clone()
	}
	return out
}

// Sync appends every change in state beyond the persisted watermark to
// the WAL as one record and advances the watermark. Under fsync policy
// "always" the changes are on stable storage when Sync returns —
// callers ack only after it does. One record per Sync keeps a
// multi-component delta atomic: a torn tail loses all of it, never the
// files container while keeping the json one.
//
// A Sync whose state's components have not moved (Version) since the
// last Sync that left the WAL holding all of them returns at once,
// without computing a delta: the transport refreshes before every
// push, and the serve path has mostly persisted the commit being pushed
// already. A failed Append records nothing, so the next Sync retries
// it.
func (p *Persister) Sync(state *ReplicaState) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := readComponentVersions(state)
	if now == p.synced {
		return nil
	}
	delta := state.Delta(p.watermark)
	if delta.Empty() {
		p.synced = now
		return nil
	}
	if err := p.store.Append(delta); err != nil {
		return fmt.Errorf("statesync: persist: %w", err)
	}
	p.synced = now
	p.watermark = advanceHeads(p.watermark, delta)
	p.pending += delta.Changes()
	if p.snapshotEvery > 0 && p.pending >= p.snapshotEvery {
		if err := p.snapshotLocked(state); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot forces a compaction of the full persisted history.
func (p *Persister) Snapshot(state *ReplicaState) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked(state)
}

// snapshotLocked serializes each component's history up to the
// persisted watermark. Changes beyond the watermark stay out: they are
// not yet in the WAL either, and a snapshot must never claim more than
// the log it replaces. Callers hold p.mu.
func (p *Persister) snapshotLocked(state *ReplicaState) error {
	full := Delta{
		CompJSON:   state.JSON.GetChanges(nil),
		CompTables: state.Tables.GetChanges(nil),
		CompFiles:  state.Files.GetChanges(nil),
	}
	components := map[string][]crdt.Change{}
	for comp, chs := range full {
		kept := make([]crdt.Change, 0, len(chs))
		for _, ch := range chs {
			if ch.Seq <= p.watermark[comp][ch.Actor] {
				kept = append(kept, ch)
			}
		}
		components[comp] = kept
	}
	if err := p.store.Snapshot(components); err != nil {
		return fmt.Errorf("statesync: snapshot: %w", err)
	}
	p.pending = 0
	return nil
}

// RecoverReplicaState rebuilds a replica's three CRDT components from a
// store's recovery result, preserving the replica's actor identity so
// new local operations continue its sequence numbers. Callers should
// check rec.Empty() first: an empty recovery means a fresh deployment,
// not a restart, and NewReplicaState is the right constructor.
func RecoverReplicaState(actor crdt.ActorID, rec *durable.Recovery) (*ReplicaState, error) {
	j, err := crdt.LoadChanges(actor+"/j", rec.Components[CompJSON])
	if err != nil {
		return nil, fmt.Errorf("statesync: recover json: %w", err)
	}
	td, err := crdt.LoadChanges(actor+"/t", rec.Components[CompTables])
	if err != nil {
		return nil, fmt.Errorf("statesync: recover tables: %w", err)
	}
	fd, err := crdt.LoadChanges(actor+"/f", rec.Components[CompFiles])
	if err != nil {
		return nil, fmt.Errorf("statesync: recover files: %w", err)
	}
	// The container-creation changes are the first thing ever persisted
	// (the initial full-history sync), so a recovered log that lacks them
	// is damaged beyond what replay can fix — the caller should fall back
	// to a fresh replica and a full resync.
	tables, err := crdt.TableFromDoc(td)
	if err != nil {
		return nil, fmt.Errorf("statesync: recover tables: %w", err)
	}
	files, err := crdt.FilesFromDoc(fd)
	if err != nil {
		return nil, fmt.Errorf("statesync: recover files: %w", err)
	}
	return &ReplicaState{JSON: j, Tables: tables, Files: files}, nil
}

// Package durable makes CRDT replicas crash-recoverable: a write-ahead
// log of change batches plus periodic snapshot compaction, per replica
// data directory. Kill -9 a node mid-sync and Open replays the latest
// valid snapshot plus the WAL tail — tolerating a torn or truncated
// final frame — back into the exact set of changes the replica had
// persisted, so its CRDT heads let the statesync transport re-handshake
// for only the missing delta instead of a full resync.
//
// Layout of a data directory:
//
//	wal-00000001.seg   sealed segment (immutable once rotated)
//	wal-00000002.seg   active segment (append-only, CRC-framed)
//	snap-00000002.snap latest snapshot; covers every segment < 2
//
// Writes are append-only frames ([len][crc32][payload]); durability is
// governed by the fsync policy (always | interval | never). Snapshot
// compaction serializes the full component histories, rotates to a
// fresh segment, then deletes the covered segments and older snapshots.
//
// Relation to internal/checkpoint: checkpoint captures the paper-level
// state_init (the app state restored between analysis executions);
// durable persists the runtime CRDT change history of a deployed
// replica. The former pins what analysis observes, the latter survives
// crashes of the deployment itself.
package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crdt"
	"repro/internal/obs"
)

// Options tunes a Store. The zero value is usable: fsync on every
// append, 4 MiB segments, no metrics.
type Options struct {
	// Fsync selects the durability/throughput trade-off (default
	// FsyncAlways).
	Fsync FsyncPolicy
	// FsyncEvery is the lazy sync period under FsyncInterval (default
	// 100ms).
	FsyncEvery time.Duration
	// SegmentBytes rotates the active segment once it reaches this size
	// (default 4 MiB).
	SegmentBytes int64
	// Obs mirrors the store's counters into the durable.* metric family
	// (see OBSERVABILITY.md); nil disables mirroring.
	Obs *obs.Obs
}

func (o Options) withDefaults() Options {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Stats counts a store's lifetime I/O.
type Stats struct {
	// Appends counts persisted change batches; AppendedBytes the framed
	// bytes written for them.
	Appends         int64
	AppendedBytes   int64
	Fsyncs          int64
	Rotations       int64
	Snapshots       int64
	SegmentsDeleted int64
	// GroupCommits counts commit rounds: disk writes that flushed the
	// append queue. Appends/GroupCommits is the mean commit batch size —
	// under concurrent writers with FsyncAlways it exceeds 1 because
	// queued appends share the leader's fsync.
	GroupCommits int64
	// MaxCommitBatch is the largest number of appends committed by a
	// single round.
	MaxCommitBatch int64
}

// storeObs holds pre-resolved instruments; all nil-safe.
type storeObs struct {
	appends, bytes, fsyncs, rotations *obs.Counter
	snapshots, replayFrames           *obs.Counter
	recoveryMS                        *obs.Histogram
	gcBatches, gcBatchedAppends       *obs.Counter
	gcBatchSize                       *obs.Histogram
}

func newStoreObs(o *obs.Obs) storeObs {
	return storeObs{
		appends:      o.Counter("durable.wal.appends"),
		bytes:        o.Counter("durable.wal.bytes"),
		fsyncs:       o.Counter("durable.wal.fsyncs"),
		rotations:    o.Counter("durable.wal.rotations"),
		snapshots:    o.Counter("durable.snapshot.count"),
		replayFrames: o.Counter("durable.snapshot.replay_frames"),
		recoveryMS:   o.Histogram("durable.recovery_ms"),
		// durable.groupcommit.*: batches counts commit rounds,
		// batched_appends counts appends that rode a round with more than
		// one (i.e. shared another writer's fsync), batch_size is the
		// per-round batch size distribution (see OBSERVABILITY.md).
		gcBatches:        o.Counter("durable.groupcommit.batches"),
		gcBatchedAppends: o.Counter("durable.groupcommit.batched_appends"),
		gcBatchSize:      o.Histogram("durable.groupcommit.batch_size"),
	}
}

// Recovery is the result of the scan Open performs: everything the
// directory durably held, ready to be replayed into fresh CRDT
// documents.
type Recovery struct {
	// Components maps component name → change log (snapshot history
	// followed by the replayed WAL tail, in write order).
	Components map[string][]crdt.Change
	// SnapshotLoaded reports whether a valid snapshot seeded the
	// recovery (false = full WAL replay).
	SnapshotLoaded bool
	// ReplayedFrames counts WAL frames replayed after the snapshot.
	ReplayedFrames int
	// Torn reports that replay stopped at a torn or corrupt frame; the
	// valid prefix was recovered and the damaged tail discarded.
	Torn bool
	// Duration is the wall-clock recovery time.
	Duration time.Duration
}

// Empty reports whether the directory held no persisted changes (a
// fresh deployment rather than a restart).
func (r *Recovery) Empty() bool {
	if r == nil {
		return true
	}
	for _, chs := range r.Components {
		if len(chs) > 0 {
			return false
		}
	}
	return true
}

// ComponentHeads summarizes the recovered knowledge per component: the
// highest sequence recovered from each actor. A recovered replica
// declares these heads when re-handshaking, so the peer ships only the
// missing delta.
func (r *Recovery) ComponentHeads() map[string]crdt.VersionVector {
	out := make(map[string]crdt.VersionVector, len(r.Components))
	for name, chs := range r.Components {
		vv := crdt.VersionVector{}
		for _, ch := range chs {
			if ch.Seq > vv[ch.Actor] {
				vv[ch.Actor] = ch.Seq
			}
		}
		out[name] = vv
	}
	return out
}

// Store is one replica's durable state: an append-only WAL plus
// snapshot compaction in a private directory. All methods are safe for
// concurrent use.
//
// Concurrent Appends group-commit: each caller frames its record into a
// shared queue, and the first to find no commit in progress becomes the
// round's leader — it drains the queue with one write and one
// (policy-dependent) fsync while followers wait on the round. Appends
// arriving during that fsync accumulate into the next round, so under
// FsyncAlways the append rate scales with the number of concurrent
// writers instead of serializing on disk latency. Durability semantics
// are unchanged: every Append still returns only after its frame is on
// stable storage (per policy), and frames remain individually
// CRC-framed, so torn-write recovery is identical.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	cond   *sync.Cond // signals the end of a commit round
	wal    *wal
	stats  Stats
	o      storeObs
	rec    *Recovery
	closed bool

	// Group-commit state, guarded by mu: queue holds the framed records
	// of the accumulating round, round is the handle its waiters share,
	// committing marks a leader mid-write, and spare recycles the drained
	// queue buffer.
	queue      []byte
	round      *commitRound
	committing bool
	spare      []byte

	// fsyncs and rotations are updated from WAL callbacks, which run
	// both under mu (Sync/Snapshot/Close) and outside it (a group-commit
	// leader's write) — atomics keep them race-free in both contexts.
	fsyncs    atomic.Int64
	rotations atomic.Int64
}

// commitRound is one group-commit batch: every Append that queued into
// it waits on done and shares err.
type commitRound struct {
	done chan struct{}
	err  error
	n    int // appends in the round
}

// Open opens (creating as needed) the store at dir and performs crash
// recovery: load the newest valid snapshot, replay the WAL tail past
// any torn final frame, and truncate the damaged tail so new appends
// land after valid data. The recovery result is available via
// Recovery().
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: mkdir: %w", err)
	}
	s := &Store{dir: dir, opts: opts, o: newStoreObs(opts.Obs)}
	s.cond = sync.NewCond(&s.mu)
	s.wal = &wal{
		dir:      dir,
		policy:   opts.Fsync,
		every:    opts.FsyncEvery,
		segBytes: opts.SegmentBytes,
		onFsync: func() {
			s.fsyncs.Add(1)
			s.o.fsyncs.Add(1)
		},
		onRotation: func() {
			s.rotations.Add(1)
			s.o.rotations.Add(1)
		},
	}
	start := time.Now()
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.rec.Duration = time.Since(start)
	s.o.recoveryMS.ObserveDuration(s.rec.Duration)
	s.o.replayFrames.Add(int64(s.rec.ReplayedFrames))
	return s, nil
}

// Recovery returns what Open recovered from the directory.
func (s *Store) Recovery() *Recovery { return s.rec }

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// recover scans the directory: newest valid snapshot first, then WAL
// replay from the snapshot's coverage boundary. It leaves the WAL open
// for appending on the last valid segment, truncated past any torn
// frame, with later (untrusted) segments removed.
func (s *Store) recover() error {
	rec := &Recovery{Components: map[string][]crdt.Change{}}
	s.rec = rec

	// Newest valid snapshot wins; corrupt ones fall back to older, and
	// ultimately to full WAL replay.
	snapSeqs, err := listSeqs(s.dir, snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	var snapSeq uint64
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		components, err := loadSnapshotFile(filepath.Join(s.dir, snapName(snapSeqs[i])))
		if err != nil {
			if errors.Is(err, errBadFrame) {
				rec.Torn = true
				continue
			}
			return err
		}
		rec.Components = components
		rec.SnapshotLoaded = true
		snapSeq = snapSeqs[i]
		break
	}

	segSeqs, err := listSeqs(s.dir, segPrefix, segSuffix)
	if err != nil {
		return err
	}
	// Replay segments the snapshot does not cover, oldest first. Replay
	// stops at the first torn/corrupt frame: frames beyond it cannot be
	// located reliably, so the tail is truncated and any later segments
	// (which a sane writer never produced past a torn frame) dropped.
	activeSeq := snapSeq
	if activeSeq == 0 {
		activeSeq = 1
	}
	damaged := false
	for _, seq := range segSeqs {
		if seq < snapSeq {
			continue // covered by the snapshot; deleted lazily at next compaction
		}
		if damaged {
			if err := os.Remove(filepath.Join(s.dir, segName(seq))); err != nil {
				return fmt.Errorf("durable: drop untrusted segment: %w", err)
			}
			continue
		}
		activeSeq = seq
		valid, frames, torn, err := s.replaySegment(filepath.Join(s.dir, segName(seq)), rec)
		if err != nil {
			return err
		}
		rec.ReplayedFrames += frames
		if torn {
			rec.Torn = true
			damaged = true
			if err := os.Truncate(filepath.Join(s.dir, segName(seq)), valid); err != nil {
				return fmt.Errorf("durable: truncate torn tail: %w", err)
			}
		}
	}
	return s.wal.openSegment(activeSeq)
}

// replaySegment replays one segment file into rec, returning the byte
// offset of the last valid frame boundary, the number of frames
// replayed, and whether a torn/corrupt frame terminated the scan. Only
// a frame that fails its length or checksum counts as torn; a frame
// that checksums but does not decode is an error.
func (s *Store) replaySegment(path string, rec *Recovery) (valid int64, frames int, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("durable: open segment: %w", err)
	}
	defer func() { _ = f.Close() }()
	for {
		payload, rerr := readFrame(f)
		if rerr == io.EOF {
			return valid, frames, false, nil
		}
		if rerr != nil {
			if errors.Is(rerr, errBadFrame) {
				return valid, frames, true, nil
			}
			return valid, frames, false, rerr
		}
		components, derr := crdt.DecodeComponents(payload)
		if derr != nil {
			// The frame checksummed, so it is not torn: it is a record
			// this build cannot read, such as one of a newer change
			// format. Fail Open and leave the files alone; truncating
			// here would discard every record from it on.
			return valid, frames, false, fmt.Errorf("durable: %s: record at offset %d: %w",
				filepath.Base(path), valid, derr)
		}
		for name, chs := range components {
			rec.Components[name] = append(rec.Components[name], chs...)
		}
		valid += int64(8 + len(payload))
		frames++
	}
}

// Append persists one batch of changes for every named component as a
// single record: recovery yields either all of it or none of it. Under
// FsyncAlways the batch is on stable storage when Append returns —
// this is what persist-before-ack in the sync runtime relies on.
//
// Concurrent Appends on the same store form commit batches that share a
// single write and fsync (see the Store doc comment); the call still
// blocks until this record's round is durable per the fsync policy.
func (s *Store) Append(components map[string][]crdt.Change) error {
	changes := 0
	for _, chs := range components {
		changes += len(chs)
	}
	if changes == 0 {
		return nil
	}
	// Encode outside the lock into a pooled buffer: framing copies the
	// payload into the shared queue, so the buffer is recycled
	// immediately.
	ebuf := crdt.GetEncodeBuffer()
	if hint := crdt.ComponentsSizeHint(components); cap(ebuf.B) < hint {
		ebuf.B = make([]byte, 0, hint)
	}
	ebuf.B = crdt.AppendComponents(ebuf.B[:0], components, nil)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ebuf.Release()
		return fmt.Errorf("durable: store is closed")
	}
	if s.queue == nil && s.spare != nil {
		s.queue, s.spare = s.spare[:0], nil
	}
	s.queue = appendFrame(s.queue, ebuf.B)
	ebuf.Release()
	if s.round == nil {
		s.round = &commitRound{done: make(chan struct{})}
	}
	round := s.round
	round.n++
	if s.committing {
		// A leader is mid-write; it will pick this round up next.
		s.mu.Unlock()
		<-round.done
		return round.err
	}
	// Become the leader: drain rounds until the queue stays empty, so
	// every append enqueued while we fsync still commits promptly.
	s.committing = true
	for s.round != nil {
		// Commit window, under FsyncAlways: yield once before sealing the
		// round so runnable writers can enqueue and share this fsync. On
		// GOMAXPROCS=1 the fsync syscall does not reliably hand off the P
		// (sysmon retake latency), so without this yield concurrent
		// writers serialize to one append per fsync. Arrivals during the
		// window see round != nil and join it; committing==true keeps
		// them followers. The other policies have no per-round fsync to
		// share, and a deployment appends under its transport lock, where
		// a yield only hands the P away inside the write's exclusive
		// section.
		if s.opts.Fsync == FsyncAlways {
			s.mu.Unlock()
			runtime.Gosched()
			s.mu.Lock()
		}
		cur := s.round
		frames := s.queue
		s.round, s.queue = nil, nil
		s.mu.Unlock()
		n, err := s.wal.appendFrames(frames)
		s.mu.Lock()
		s.stats.Appends += int64(cur.n)
		s.stats.AppendedBytes += int64(n)
		s.stats.GroupCommits++
		if int64(cur.n) > s.stats.MaxCommitBatch {
			s.stats.MaxCommitBatch = int64(cur.n)
		}
		s.o.appends.Add(int64(cur.n))
		s.o.bytes.Add(int64(n))
		s.o.gcBatches.Add(1)
		s.o.gcBatchSize.Observe(float64(cur.n))
		if cur.n > 1 {
			s.o.gcBatchedAppends.Add(int64(cur.n))
		}
		if s.spare == nil && cap(frames) <= maxFrameBytes {
			s.spare = frames[:0]
		}
		cur.err = err
		close(cur.done)
	}
	s.committing = false
	s.cond.Broadcast()
	s.mu.Unlock()
	return round.err
}

// quiesceLocked waits until no commit round is in flight; callers hold
// s.mu and may then touch the WAL directly.
func (s *Store) quiesceLocked() {
	for s.committing {
		s.cond.Wait()
	}
}

// Snapshot compacts the log: it writes the given full component
// histories as a snapshot, rotates to a fresh segment, and deletes the
// covered segments and superseded snapshots. After a successful
// Snapshot, recovery cost is proportional to traffic since the
// snapshot, not deployment lifetime.
func (s *Store) Snapshot(components map[string][]crdt.Change) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quiesceLocked()
	if s.closed {
		return fmt.Errorf("durable: store is closed")
	}
	// Seal the active segment first so the snapshot's coverage boundary
	// (the new active segment) holds nothing the snapshot misses.
	if err := s.wal.rotate(); err != nil {
		return err
	}
	boundary := s.wal.seq
	if err := writeSnapshotFile(s.dir, boundary, components); err != nil {
		return err
	}
	s.stats.Snapshots++
	s.o.snapshots.Add(1)

	// Drop everything the snapshot supersedes.
	segSeqs, err := listSeqs(s.dir, segPrefix, segSuffix)
	if err != nil {
		return err
	}
	for _, seq := range segSeqs {
		if seq < boundary {
			if err := os.Remove(filepath.Join(s.dir, segName(seq))); err != nil {
				return fmt.Errorf("durable: remove covered segment: %w", err)
			}
			s.stats.SegmentsDeleted++
		}
	}
	snapSeqs, err := listSeqs(s.dir, snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	for _, seq := range snapSeqs {
		if seq < boundary {
			if err := os.Remove(filepath.Join(s.dir, snapName(seq))); err != nil {
				return fmt.Errorf("durable: remove old snapshot: %w", err)
			}
		}
	}
	return syncDir(s.dir)
}

// Sync forces pending appends to stable storage regardless of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quiesceLocked()
	if s.closed {
		return nil
	}
	return s.wal.sync()
}

// Stats returns a snapshot of the store's I/O counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Fsyncs = s.fsyncs.Load()
	st.Rotations = s.rotations.Load()
	return st
}

// Close seals the active segment (synced) and releases the store. It is
// idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quiesceLocked()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.close()
}

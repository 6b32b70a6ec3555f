package flexpath

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"flexpath/internal/wal"
)

// Durability: a collection whose mutations survive a crash.
//
// OpenDurableCollection returns a Collection whose every mutation — Add,
// Replace, Upsert, Remove, RemoveIfPresent, AddSnapshotFile and AddFile —
// is framed into a write-ahead log and fsync'd before it returns;
// periodic checkpoints bound replay time, and the next open recovers the
// exact acknowledged state (the checkpoint, then WAL replay, truncating a
// torn tail record instead of failing). A record holds the document's
// FXP3 snapshot bytes, encoded before the writer lock is taken: the
// bytes a checkpoint writes for that member, and a decode, not a parse,
// at replay. Logs whose records hold XML still replay: a record's magic
// decides its format.
//
// A checkpoint is one FXP3 snapshot file per member in the log directory
// plus a small manifest naming them in collection order with the LSN they
// cover. Only members changed since the previous checkpoint are written;
// the rest keep their files. Recovery adds every manifest member cold
// (AddSnapshotFile: mapped, not decoded), so a restart costs pages, not
// the corpus, and the recovered members obey SetResidency.
//
// Ordering: a mutation is appended to the log buffer under the
// collection's writer mutex, published, and only then acknowledged once
// an fsync covers its record — so log order is membership order, the
// on-disk order always precedes the apply order, searches may observe a
// mutation slightly before its ack (acceptable for a search corpus), and
// a crash can only lose mutations that were never acknowledged.

// durability is a durable collection's log and checkpoint state.
type durability struct {
	log *wal.Log
	dir string

	// every is the checkpoint cadence in mutations; <= 0 disables
	// automatic checkpoints (Checkpoint can still be called manually).
	every int

	// sinceCkpt counts mutations since the last cut and closed refuses
	// appends after Close; both are guarded by the collection's mu, which
	// also orders log appends with the cut (see checkpoint).
	sinceCkpt int
	closed    bool

	// ckptMu is held while a checkpoint is written; TryLock on the
	// trigger path makes overlapping automatic checkpoints impossible
	// without blocking mutations, and Close locks it to wait for one.
	ckptMu sync.Mutex
	// files maps each member the current manifest covers to its member
	// file; a member absent from it (added or replaced since) is what the
	// next checkpoint writes. Replace and Remove+Add install a new *member,
	// so identity is the change detector. Guarded by ckptMu.
	files map[*member]string
	// beforeManifest, when set (tests only), runs after the member files
	// are durable and before the manifest is replaced; an error aborts the
	// checkpoint there, leaving the disk as a crash at that point would.
	beforeManifest func() error

	replayed    uint64
	tornBytes   int64
	bootCkptLSN uint64

	ckpts        atomic.Uint64
	ckptErrs     atomic.Uint64
	ckptLastNano atomic.Int64
}

// DurableOptions configures OpenDurableCollection.
type DurableOptions struct {
	// SyncWindow is the WAL group-commit window: an acknowledgment may be
	// delayed up to this long so concurrent mutations share one fsync.
	// 0 fsyncs every mutation immediately (maximum durability latency
	// cost, minimum ack latency under light load).
	SyncWindow time.Duration
	// CheckpointEvery is how many mutations may accumulate before a
	// background checkpoint persists the corpus and prunes the log.
	// 0 picks DefaultCheckpointEvery; negative disables automatic
	// checkpoints.
	CheckpointEvery int
}

// DefaultCheckpointEvery is the automatic checkpoint cadence when
// DurableOptions.CheckpointEvery is zero.
const DefaultCheckpointEvery = 1024

// ErrLegacyCheckpoint reports a WAL directory that still holds a
// checkpoint-*.fxpc container from a release that checkpointed the whole
// corpus into one file. The log records it covered were pruned when it
// was written, so this build cannot recover the directory — and refuses
// to open it rather than serve an older or empty corpus.
var ErrLegacyCheckpoint = wal.ErrLegacyCheckpoint

// OpenDurableCollection opens (creating as needed) a durable collection
// rooted at dir, recovering any previous state: every member the
// checkpoint manifest names is added cold, files no manifest names are
// swept, then the write-ahead log is replayed through the collection's
// own verbs, before the log is attached, so replay logs nothing. A torn
// tail record — the signature of a crash mid-append — is truncated, not
// an error. A manifest that fails verification, or names a member file
// that is missing or damaged, fails the open with an error wrapping
// ErrCorruptSnapshot: the log it covered is gone, so there is no older
// state to fall back to and a partial corpus is never returned.
func OpenDurableCollection(dir string, opts DurableOptions) (_ *Collection, err error) {
	c := NewCollection()
	defer func() {
		if err != nil {
			c.Close() //nolint:errcheck // already failing
		}
	}()

	man, err := wal.ReadManifest(dir)
	if errors.Is(err, wal.ErrCorruptManifest) {
		err = corrupt(err)
	}
	if err != nil {
		return nil, fmt.Errorf("flexpath: durable open: %w", err)
	}
	for _, e := range man.Members {
		if err := c.AddSnapshotFile(e.Name, filepath.Join(dir, e.File)); err != nil {
			return nil, fmt.Errorf("flexpath: checkpoint member %q: %w", e.Name, corrupt(err))
		}
	}
	d := &durability{dir: dir, every: opts.CheckpointEvery, files: make(map[*member]string), bootCkptLSN: man.LSN}
	if d.every == 0 {
		d.every = DefaultCheckpointEvery
	}
	for i, m := range c.members() {
		d.files[m] = man.Members[i].File
	}
	if err := wal.Sweep(dir, man); err != nil {
		return nil, fmt.Errorf("flexpath: durable open: %w", err)
	}

	log, rec, err := wal.Open(dir, wal.Options{SyncWindow: opts.SyncWindow, AfterLSN: man.LSN}, c.replay)
	if err != nil {
		return nil, fmt.Errorf("flexpath: durable open: %w", err)
	}
	d.log, d.replayed, d.tornBytes = log, uint64(rec.Replayed), rec.TornBytes
	c.dur = d
	return c, nil
}

// replay applies one recovered WAL record. Replay is deliberately
// tolerant of state mismatches (add of a present name applies as
// replace, remove of an absent name is a no-op): a checkpoint may cover
// a prefix of a record's effects after an ill-timed crash, and
// convergence matters more than strictness when rebuilding state that
// was already acknowledged once.
func (c *Collection) replay(r wal.Record) error {
	switch r.Op {
	case wal.OpAdd, wal.OpReplace:
		doc, err := loadDocumentBytes(r.Doc)
		if err != nil {
			return fmt.Errorf("load document %q: %w", r.Name, err)
		}
		return c.Upsert(r.Name, doc)
	case wal.OpRemove:
		_, err := c.RemoveIfPresent(r.Name)
		return err
	}
	return fmt.Errorf("unknown op %d", r.Op)
}

// loadDocumentBytes builds a Document from raw bytes, deciding their
// format by snapshotMagic the way LoadAuto and AddFile do for files. WAL
// records hold FXP3 snapshots, decoded in place (the document aliases b;
// the WAL hands out every record's bytes as a fresh copy); records from
// builds that logged the uploaded body hold XML.
func loadDocumentBytes(b []byte) (*Document, error) {
	isFXP3, err := snapshotMagic(b)
	switch {
	case err != nil:
		return nil, err
	case isFXP3:
		return decodeFXP3(b)
	}
	return Load(bytes.NewReader(b))
}

// walOps is the record each resolved verb logs.
var walOps = [...]wal.Op{verbAdd: wal.OpAdd, verbReplace: wal.OpReplace, verbRemove: wal.OpRemove}

// appendRecord is a durable mutation's write path under c.mu, before it
// publishes: append the resolved op to the log buffer and count it
// toward the cadence. A due checkpoint starts in the background if none
// is in flight; its cut waits for c.mu, so it runs after this mutation
// publishes. The caller must WaitDurable on the returned LSN, after c.mu
// is released, before acknowledging.
func (c *Collection) appendRecord(op verb, name string, rec []byte) (uint64, error) {
	d := c.dur
	if d.closed {
		return 0, wal.ErrClosed
	}
	lsn, err := d.log.Append(walOps[op], name, rec)
	if err != nil {
		return 0, err
	}
	d.sinceCkpt++
	// One checkpoint at a time; while one runs, the next mutation retries.
	if d.every > 0 && d.sinceCkpt >= d.every && d.ckptMu.TryLock() {
		go func() {
			defer d.ckptMu.Unlock()
			c.checkpoint() //nolint:errcheck // counted in ckptErrs
		}()
	}
	return lsn, nil
}

// Checkpoint writes a checkpoint of a durable collection now, waiting
// for any in-flight background checkpoint first. A collection not opened
// with OpenDurableCollection has nothing to checkpoint; that is an error.
func (c *Collection) Checkpoint() error {
	d := c.dur
	if d == nil {
		return errors.New("flexpath: checkpoint of a collection that is not durable")
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return c.checkpoint()
}

// checkpoint cuts and writes one checkpoint; ckptMu held. The cut seals
// the log and reads the published membership under c.mu, atomically with
// respect to mutations, so the sealed segments hold exactly the records
// the membership covers. It faults nothing in.
func (c *Collection) checkpoint() error {
	d := c.dur
	c.mu.Lock()
	d.sinceCkpt = 0
	lastLSN, err := d.log.Rotate()
	members := c.members()
	c.mu.Unlock()
	if err != nil {
		d.ckptErrs.Add(1)
		return err
	}
	return d.writeCheckpoint(lastLSN, members)
}

// writeCheckpoint persists the cut membership; ckptMu held. Each
// step leaves the directory recoverable if the process dies after it:
//
//  1. A member file is written and fsync'd for every member the current
//     manifest does not cover: a pinned member's document, a cold one's
//     mapped file, so nothing is faulted in (documents and mappings are
//     immutable, so the refs stay valid while mutations continue).
//     Crash: the files are orphans under the old manifest; recovery
//     sweeps them.
//  2. One directory sync makes the new names durable. Crash: as 1.
//  3. The manifest is replaced atomically. Crash before the rename: as 1;
//     after: recovery boots from the new manifest and skips the sealed
//     segments' records by LSN.
//  4. Sealed segments are pruned and files the new manifest dropped are
//     unlinked. Crash: leftovers cost disk until the next open or
//     checkpoint sweeps them.
func (d *durability) writeCheckpoint(lastLSN uint64, members []*member) (err error) {
	start := time.Now()
	defer func() {
		if err != nil {
			d.ckptErrs.Add(1)
		}
	}()
	man := wal.Manifest{LSN: lastLSN, Members: make([]wal.Member, len(members))}
	files := make(map[*member]string, len(members))
	for i, m := range members {
		file, ok := d.files[m]
		if !ok {
			file = wal.MemberFile(lastLSN, i)
			write := func(w io.Writer) error {
				_, err := w.Write(m.cold.f.Bytes())
				return err
			}
			if m.cold == nil {
				write = m.doc.Load().SaveFXP3Snapshot
			}
			if err := wal.WriteFileSync(filepath.Join(d.dir, file), write); err != nil {
				return fmt.Errorf("flexpath: checkpoint %q: %w", m.name, err)
			}
		}
		man.Members[i] = wal.Member{Name: m.name, File: file}
		files[m] = file
	}
	if err := wal.SyncDir(d.dir); err != nil {
		return fmt.Errorf("flexpath: checkpoint: %w", err)
	}
	if d.beforeManifest != nil {
		if err := d.beforeManifest(); err != nil {
			return err
		}
	}
	if err := wal.WriteManifest(d.dir, man); err != nil {
		return fmt.Errorf("flexpath: checkpoint: %w", err)
	}
	d.files = files
	// The checkpoint itself is durable; stale segments and member files
	// only cost disk until the next successful prune.
	if err := d.log.RemoveSealedSegments(); err != nil {
		d.ckptErrs.Add(1)
	}
	if err := wal.Sweep(d.dir, man); err != nil {
		d.ckptErrs.Add(1)
	}
	d.ckpts.Add(1)
	d.ckptLastNano.Store(int64(time.Since(start)))
	return nil
}

// DurableStats is a point-in-time snapshot of the durability layer's
// counters, exported by flexserve as the flexpath_wal_* metric families.
type DurableStats struct {
	// AppendedRecords, Fsyncs and FsyncedRecords are the log's write-side
	// counters; Fsyncs < FsyncedRecords means group commit is batching.
	AppendedRecords uint64
	Fsyncs          uint64
	FsyncedRecords  uint64
	// ReplayedRecords and TornBytesTruncated describe boot-time recovery.
	ReplayedRecords    uint64
	TornBytesTruncated int64
	// CheckpointLSN is the LSN of the checkpoint recovery booted from
	// (0 when recovery started from an empty or checkpoint-less dir).
	CheckpointLSN uint64
	// Checkpoints / CheckpointErrors count completed and failed
	// checkpoints this process; LastCheckpointDuration is the wall time
	// of the newest one.
	Checkpoints            uint64
	CheckpointErrors       uint64
	LastCheckpointDuration time.Duration
	// LogBytes / LogSegments describe the live log on disk.
	LogBytes    int64
	LogSegments int64
}

// DurableStats returns the durability counters; ok is false when the
// collection was not opened with OpenDurableCollection.
func (c *Collection) DurableStats() (s DurableStats, ok bool) {
	d := c.dur
	if d == nil {
		return s, false
	}
	ls := d.log.Stats()
	return DurableStats{
		AppendedRecords:        ls.AppendedRecords,
		Fsyncs:                 ls.Fsyncs,
		FsyncedRecords:         ls.FsyncedRecords,
		ReplayedRecords:        d.replayed,
		TornBytesTruncated:     d.tornBytes,
		CheckpointLSN:          d.bootCkptLSN,
		Checkpoints:            d.ckpts.Load(),
		CheckpointErrors:       d.ckptErrs.Load(),
		LastCheckpointDuration: time.Duration(d.ckptLastNano.Load()),
		LogBytes:               ls.Bytes,
		LogSegments:            ls.Segments,
	}, true
}

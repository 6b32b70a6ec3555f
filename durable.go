package flexpath

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"flexpath/internal/wal"
)

// A DurableCollection is a Collection whose mutations survive a crash:
// every Add, Replace and Remove is framed into a write-ahead log and
// fsync'd before it is acknowledged, periodic checkpoints bound replay
// time, and OpenDurableCollection recovers the exact acknowledged state
// on boot (the checkpoint, then WAL replay, truncating a torn tail record
// instead of failing).
//
// A checkpoint is one FXP3 snapshot file per member in the log directory
// plus a small manifest naming them in collection order with the LSN they
// cover. Only members changed since the previous checkpoint are written;
// the rest keep their files. Recovery adds every manifest member cold
// (Collection.AddSnapshotFile: mapped, not decoded), so a restart costs
// pages, not the corpus, and the recovered members obey SetResidency.
//
// Ordering: a mutation is appended to the log buffer, applied to the
// in-memory collection, and only then acknowledged once an fsync covers
// its record — so the on-disk order always precedes the apply order,
// searches may observe a mutation slightly before its ack (acceptable
// for a search corpus), and a crash can only lose mutations that were
// never acknowledged. The append runs inside the wrapped Collection's
// mutation, under its writer mutex, so log order is membership order;
// searches run concurrently against the wrapped Collection as usual.
type DurableCollection struct {
	c   *Collection
	log *wal.Log
	dir string

	// every is the checkpoint cadence in mutations; <= 0 disables
	// automatic checkpoints (Checkpoint can still be called manually).
	every int

	// sinceCkpt counts mutations since the last cut; guarded by c.mu,
	// which also orders log appends with the cut (see checkpoint).
	sinceCkpt int

	// ckptMu is held while a checkpoint is written; TryLock on the
	// trigger path makes overlapping automatic checkpoints impossible
	// without blocking mutations.
	ckptMu sync.Mutex
	wg     sync.WaitGroup
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
	closed       atomic.Bool
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

// Sentinel errors that, with ErrDocumentExists and ErrNoDocument, let an
// API layer map mutation failures to distinct statuses.
var (
	// ErrBadDocument reports a body that failed to parse; the mutation was
	// never logged. API layers map it to a client error, unlike the I/O
	// failures the other paths can return.
	ErrBadDocument = errors.New("bad document")
	// ErrLegacyCheckpoint reports a WAL directory that still holds a
	// checkpoint-*.fxpc container from a release that checkpointed the
	// whole corpus into one file. The log records it covered were pruned
	// when it was written, so this build cannot recover the directory —
	// and refuses to open it rather than serve an older or empty corpus.
	ErrLegacyCheckpoint = wal.ErrLegacyCheckpoint
)

// OpenDurableCollection opens (creating as needed) a durable collection
// rooted at dir, recovering any previous state: every member the
// checkpoint manifest names is added cold, files no manifest names are
// swept, then the write-ahead log is replayed through the normal mutation
// path. A torn tail record — the signature of a crash mid-append — is
// truncated, not an error. A manifest that fails verification, or names
// a member file that is missing or damaged, fails the open with an error
// wrapping ErrCorruptSnapshot: the log it covered is gone, so there is no
// older state to fall back to and a partial corpus is never returned.
func OpenDurableCollection(dir string, opts DurableOptions) (_ *DurableCollection, err error) {
	every := opts.CheckpointEvery
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	dc := &DurableCollection{c: NewCollection(), dir: dir, every: every, files: make(map[*member]string)}
	defer func() {
		if err != nil {
			dc.c.Close() //nolint:errcheck // already failing
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
		if err := dc.c.AddSnapshotFile(e.Name, filepath.Join(dir, e.File)); err != nil {
			return nil, fmt.Errorf("flexpath: checkpoint member %q: %w", e.Name, corrupt(err))
		}
	}
	for i, m := range dc.c.members() {
		dc.files[m] = man.Members[i].File
	}
	dc.bootCkptLSN = man.LSN
	if err := wal.Sweep(dir, man); err != nil {
		return nil, fmt.Errorf("flexpath: durable open: %w", err)
	}

	log, rec, err := wal.Open(dir, wal.Options{SyncWindow: opts.SyncWindow, AfterLSN: man.LSN}, dc.applyReplay)
	if err != nil {
		return nil, fmt.Errorf("flexpath: durable open: %w", err)
	}
	dc.log = log
	dc.replayed = uint64(rec.Replayed)
	dc.tornBytes = rec.TornBytes
	return dc, nil
}

// applyReplay applies one recovered WAL record. Replay is deliberately
// tolerant of state mismatches (add of a present name applies as
// replace, remove of an absent name is a no-op): a checkpoint may cover
// a prefix of a record's effects after an ill-timed crash, and
// convergence matters more than strictness when rebuilding state that
// was already acknowledged once.
func (dc *DurableCollection) applyReplay(r wal.Record) error {
	switch r.Op {
	case wal.OpAdd, wal.OpReplace:
		doc, err := loadDocumentBytes(r.Doc)
		if err != nil {
			return fmt.Errorf("parse document %q: %w", r.Name, err)
		}
		return dc.c.Upsert(r.Name, doc)
	case wal.OpRemove:
		_, err := dc.c.RemoveIfPresent(r.Name)
		return err
	}
	return fmt.Errorf("unknown op %d", r.Op)
}

// loadDocumentBytes builds a Document from raw bytes, deciding their
// format by snapshotMagic the way LoadAuto and AddFile do for files. WAL
// records from admin uploads always hold XML; records seeded from
// command-line files may hold snapshots, which are decoded in place (the
// document aliases b; the WAL hands out every record's bytes as a fresh
// copy).
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

// Collection returns the live collection for searching and read-side
// configuration (caches, stats). Mutate only through the
// DurableCollection — direct Collection mutations bypass the log and
// will not survive a restart.
func (dc *DurableCollection) Collection() *Collection { return dc.c }

// Add durably inserts an XML document under name, failing with
// ErrDocumentExists if the name is taken.
func (dc *DurableCollection) Add(name string, body []byte) error {
	_, err := dc.mutate(verbAdd, name, body, loadXML)
	return err
}

// Replace durably swaps the named document for the posted XML, failing
// with ErrNoDocument if the name is absent.
func (dc *DurableCollection) Replace(name string, body []byte) error {
	_, err := dc.mutate(verbReplace, name, body, loadXML)
	return err
}

// Upsert durably adds the document if the name is absent and replaces it
// otherwise. Retrying an upsert after an ambiguous failure (a crashed or
// unreachable server) is always safe, which makes it the right verb for
// bulk ingest pipelines.
func (dc *DurableCollection) Upsert(name string, body []byte) error {
	_, err := dc.mutate(verbUpsert, name, body, loadXML)
	return err
}

// Remove durably deletes the named document, failing with ErrNoDocument
// if it is absent.
func (dc *DurableCollection) Remove(name string) error {
	_, err := dc.mutate(verbRemove, name, nil, nil)
	return err
}

// RemoveIfPresent durably deletes the named document if it exists and
// reports whether it did. Like Upsert, it is retry-safe.
func (dc *DurableCollection) RemoveIfPresent(name string) (bool, error) {
	return dc.mutate(verbRemoveIfPresent, name, nil, nil)
}

// Seed durably inserts a document from raw file bytes (XML or a binary
// snapshot, routed by magic) if the name is absent; present names are
// left untouched. A snapshot is decoded in place, so the document
// aliases data, which must not be modified afterwards. flexserve uses it
// to ingest command-line corpus files into a fresh WAL directory exactly
// once.
func (dc *DurableCollection) Seed(name string, data []byte) error {
	_, err := dc.mutate(verbSeed, name, data, loadDocumentBytes)
	return err
}

func loadXML(b []byte) (*Document, error) { return Load(bytes.NewReader(b)) }

// mutate is every durable verb. The body is parsed (by parse, nil for a
// removal) outside any lock. The Collection resolves the verb and, under
// its writer mutex, stages what it resolved to before publishing it, so
// the on-disk order precedes the apply order. The durability wait happens
// after the lock is released: concurrent mutations stage back-to-back and
// share one group-commit fsync instead of serializing through it. It
// reports whether the membership changed.
func (dc *DurableCollection) mutate(v verb, name string, body []byte, parse func([]byte) (*Document, error)) (bool, error) {
	var mem *member
	if parse != nil {
		doc, err := parse(body)
		if err != nil {
			return false, fmt.Errorf("%w: %w", ErrBadDocument, err)
		}
		mem = pinned(name, doc)
	}
	var lsn uint64
	changed, err := dc.c.mutate(v, name, mem, nil, func(op verb) (err error) {
		lsn, err = dc.stage(op, name, body)
		return err
	})
	if !changed || err != nil {
		return false, err
	}
	return true, dc.log.WaitDurable(lsn)
}

// walOps is the record each resolved verb logs.
var walOps = [...]wal.Op{verbAdd: wal.OpAdd, verbReplace: wal.OpReplace, verbRemove: wal.OpRemove}

// stage is the write path under c.mu, before the mutation publishes:
// append the resolved op to the log buffer and count it toward the
// cadence. A due checkpoint starts in the background if none is in
// flight; its cut waits for c.mu, so it runs after this mutation
// publishes. The caller must WaitDurable on the returned LSN, after c.mu
// is released, before acknowledging.
func (dc *DurableCollection) stage(op verb, name string, body []byte) (uint64, error) {
	if dc.closed.Load() {
		return 0, wal.ErrClosed
	}
	lsn, err := dc.log.Append(walOps[op], name, body)
	if err != nil {
		return 0, err
	}
	dc.sinceCkpt++
	// One checkpoint at a time; while one runs, the next mutation retries.
	if dc.every > 0 && dc.sinceCkpt >= dc.every && dc.ckptMu.TryLock() {
		dc.wg.Add(1) // under c.mu, so Close's barrier sees it
		go func() {
			defer dc.wg.Done()
			defer dc.ckptMu.Unlock()
			dc.checkpoint() //nolint:errcheck // counted in ckptErrs
		}()
	}
	return lsn, nil
}

// Checkpoint forces a checkpoint synchronously, waiting for any
// in-flight background checkpoint first.
func (dc *DurableCollection) Checkpoint() error {
	dc.ckptMu.Lock()
	defer dc.ckptMu.Unlock()
	return dc.checkpoint()
}

// checkpoint cuts and writes one checkpoint; ckptMu held. The cut seals
// the log and reads the published membership under c.mu, atomically with
// respect to mutations, so the sealed segments hold exactly the records
// the membership covers. It faults nothing in.
func (dc *DurableCollection) checkpoint() error {
	dc.c.mu.Lock()
	dc.sinceCkpt = 0
	lastLSN, err := dc.log.Rotate()
	members := dc.c.members()
	dc.c.mu.Unlock()
	if err != nil {
		dc.ckptErrs.Add(1)
		return err
	}
	return dc.writeCheckpoint(lastLSN, members)
}

// writeCheckpoint persists the cut membership; ckptMu held. Each
// step leaves the directory recoverable if the process dies after it:
//
//  1. A member file is written and fsync'd for every member the current
//     manifest does not cover (documents are immutable once built, so the
//     refs stay valid while mutations continue). Crash: the files are
//     orphans under the old manifest; recovery sweeps them.
//  2. One directory sync makes the new names durable. Crash: as 1.
//  3. The manifest is replaced atomically. Crash before the rename: as 1;
//     after: recovery boots from the new manifest and skips the sealed
//     segments' records by LSN.
//  4. Sealed segments are pruned and files the new manifest dropped are
//     unlinked. Crash: leftovers cost disk until the next open or
//     checkpoint sweeps them.
func (dc *DurableCollection) writeCheckpoint(lastLSN uint64, members []*member) (err error) {
	start := time.Now()
	defer func() {
		if err != nil {
			dc.ckptErrs.Add(1)
		}
	}()
	man := wal.Manifest{LSN: lastLSN, Members: make([]wal.Member, len(members))}
	files := make(map[*member]string, len(members))
	for i, m := range members {
		file, ok := dc.files[m]
		if !ok {
			// Not in the manifest means added through the log since, and
			// such members are pinned: the document is there without a fault.
			d := m.doc.Load()
			if d == nil {
				return fmt.Errorf("flexpath: checkpoint %q: cold member was not added through the log", m.name)
			}
			file = wal.MemberFile(lastLSN, i)
			if err := wal.WriteFileSync(filepath.Join(dc.dir, file), d.SaveFXP3Snapshot); err != nil {
				return fmt.Errorf("flexpath: checkpoint %q: %w", m.name, err)
			}
		}
		man.Members[i] = wal.Member{Name: m.name, File: file}
		files[m] = file
	}
	if err := wal.SyncDir(dc.dir); err != nil {
		return fmt.Errorf("flexpath: checkpoint: %w", err)
	}
	if dc.beforeManifest != nil {
		if err := dc.beforeManifest(); err != nil {
			return err
		}
	}
	if err := wal.WriteManifest(dc.dir, man); err != nil {
		return fmt.Errorf("flexpath: checkpoint: %w", err)
	}
	dc.files = files
	// The checkpoint itself is durable; stale segments and member files
	// only cost disk until the next successful prune.
	if err := dc.log.RemoveSealedSegments(); err != nil {
		dc.ckptErrs.Add(1)
	}
	if err := wal.Sweep(dc.dir, man); err != nil {
		dc.ckptErrs.Add(1)
	}
	dc.ckpts.Add(1)
	dc.ckptLastNano.Store(int64(time.Since(start)))
	return nil
}

// Close waits for any in-flight checkpoint and closes the log. The
// collection remains searchable but further mutations fail.
func (dc *DurableCollection) Close() error {
	if dc.closed.Swap(true) {
		return nil
	}
	// Barrier: any mutation holding the collection's lock right now
	// finishes staging (and possibly scheduling a checkpoint) before the
	// wait below; later mutations fail fast on the closed flag.
	dc.c.mu.Lock()
	dc.c.mu.Unlock() //nolint:staticcheck // empty critical section is the point
	dc.wg.Wait()
	return dc.log.Close()
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

// Stats returns the durability counters.
func (dc *DurableCollection) Stats() DurableStats {
	ls := dc.log.Stats()
	return DurableStats{
		AppendedRecords:        ls.AppendedRecords,
		Fsyncs:                 ls.Fsyncs,
		FsyncedRecords:         ls.FsyncedRecords,
		ReplayedRecords:        dc.replayed,
		TornBytesTruncated:     dc.tornBytes,
		CheckpointLSN:          dc.bootCkptLSN,
		Checkpoints:            dc.ckpts.Load(),
		CheckpointErrors:       dc.ckptErrs.Load(),
		LastCheckpointDuration: time.Duration(dc.ckptLastNano.Load()),
		LogBytes:               ls.Bytes,
		LogSegments:            ls.Segments,
	}
}

// Package wal implements the durable-ingest substrate beneath a live
// flexpath corpus: an append-only, CRC32C-framed write-ahead log of
// document mutations with group-commit fsync batching, segment rotation
// for checkpoint truncation, torn-tail recovery on boot, and the
// atomic-write and checkpoint-manifest helpers the checkpointer shares
// with snapshot saving.
//
// The log stores mutations, not index state: each record carries the
// operation, the document name and (for add/replace) the raw document
// bytes, and replay re-applies the mutation through the same code path
// a live request takes. Periodic checkpoints (see checkpoint.go) bound
// replay time; after a checkpoint covering LSN L is durable, every
// sealed segment (all of whose records have LSN <= L) can be deleted.
//
// Durability protocol: Append writes a record into the buffered active
// segment and returns its LSN without waiting; WaitDurable(lsn) blocks
// until an fsync covers that LSN. Callers apply the mutation to memory
// between the two calls and acknowledge only after WaitDurable — so the
// on-disk record order always precedes the in-memory apply order, and a
// crash can only lose mutations that were never acknowledged. Concurrent
// waiters batch naturally: one fsync covers every record buffered before
// it, and an optional group-commit window (Options.SyncWindow) delays
// the sync slightly so more appends join the batch.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Op identifies a logged mutation.
type Op byte

// The mutation operations a record can carry. OpAdd and OpReplace carry
// document bytes; OpRemove carries only the name.
const (
	OpAdd     Op = 1
	OpRemove  Op = 2
	OpReplace Op = 3
)

func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpReplace:
		return "replace"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Record is one logged mutation.
type Record struct {
	// LSN is the record's log sequence number: strictly monotone across
	// the whole log, assigned by Append, never reused.
	LSN  uint64
	Op   Op
	Name string
	// Doc holds the raw document bytes for OpAdd/OpReplace (empty for
	// OpRemove). Replay re-parses them; the log never stores index state.
	Doc []byte
}

// Options configures Open.
type Options struct {
	// SyncWindow is the group-commit window: WaitDurable sleeps this long
	// before syncing so concurrent appends share one fsync. 0 syncs
	// immediately (every acknowledged mutation costs its own fsync unless
	// another waiter got there first).
	SyncWindow time.Duration
	// AfterLSN suppresses replay of records at or below it (they are
	// covered by a checkpoint): such records are still parsed and
	// validated, but not handed to apply.
	AfterLSN uint64
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// Replayed counts records handed to apply (LSN > AfterLSN).
	Replayed int
	// Scanned counts all valid records parsed, including skipped ones.
	Scanned int
	// TornBytes is how many trailing bytes of the final segment were
	// discarded as a torn (partially written) record.
	TornBytes int64
	// LastLSN is the highest LSN seen (0 when the log was empty).
	LastLSN uint64
}

// Frame layout: 4-byte little-endian payload length, 4-byte CRC32C
// (Castagnoli) of the payload, then the payload (uvarint LSN, op byte,
// uvarint name length, name, uvarint doc length, doc).
const frameHeader = 8

// maxRecordLen bounds a frame's payload so a garbage length field in a
// torn tail cannot drive a giant allocation. It comfortably exceeds the
// 64 MB admin upload cap.
const maxRecordLen = 1 << 28

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	segPattern = segPrefix + "%016x" + segSuffix
)

// Log is an open write-ahead log: one active append segment plus any
// sealed segments not yet released by a checkpoint.
type Log struct {
	dir    string
	window time.Duration

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	seg      uint64 // active segment sequence number
	nextLSN  uint64
	appended uint64 // highest LSN written into the buffer
	scratch  []byte
	err      error // sticky write/sync failure: the log is poisoned
	closed   bool

	// synced is the highest LSN known durable; read lock-free by the
	// WaitDurable fast path, written under mu.
	synced atomic.Uint64

	// Counters for Stats.
	nAppended atomic.Uint64
	nFsyncs   atomic.Uint64
	nFsynced  atomic.Uint64
	bytes     atomic.Int64 // on-disk bytes across all segments
	segments  atomic.Int64
}

// Open opens (creating as needed) the log in dir, replays every valid
// record through apply in LSN order, truncates a torn tail record from
// the final segment, and returns the log positioned to append after the
// last valid record. Records with LSN <= opts.AfterLSN are validated but
// not replayed. A torn record anywhere but the tail of the final segment
// is corruption (sealed segments were fsync'd) and fails Open.
func Open(dir string, opts Options, apply func(Record) error) (*Log, Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, Recovery{}, err
	}
	l := &Log{dir: dir, window: opts.SyncWindow}
	var rec Recovery
	for i, seg := range segs {
		last := i == len(segs)-1
		res, err := replaySegment(filepath.Join(dir, seg.name), last, opts.AfterLSN, rec.LastLSN, apply)
		if err != nil {
			return nil, rec, fmt.Errorf("wal: segment %s: %w", seg.name, err)
		}
		rec.Replayed += res.replayed
		rec.Scanned += res.scanned
		rec.TornBytes += res.torn
		if res.lastLSN > rec.LastLSN {
			rec.LastLSN = res.lastLSN
		}
		l.bytes.Add(res.valid)
	}
	l.nextLSN = rec.LastLSN + 1
	if opts.AfterLSN >= l.nextLSN-1 {
		l.nextLSN = opts.AfterLSN + 1
	}
	l.synced.Store(l.nextLSN - 1) // everything on disk is durable
	l.appended = l.nextLSN - 1

	if len(segs) > 0 {
		// Reopen the final segment for appending (its torn tail, if any,
		// was truncated by replaySegment).
		last := segs[len(segs)-1]
		f, err := os.OpenFile(filepath.Join(dir, last.name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, rec, err
		}
		l.f, l.seg = f, last.seq
	} else {
		if err := l.newSegmentLocked(1); err != nil {
			return nil, rec, err
		}
	}
	l.segments.Store(int64(len(segs)))
	if len(segs) == 0 {
		l.segments.Store(1)
	}
	l.w = bufio.NewWriterSize(l.f, 1<<16)
	return l, rec, nil
}

// newSegmentLocked creates segment seq exclusively and fsyncs the
// directory so the new name survives a crash. Caller holds mu (or is
// Open, pre-publication).
func (l *Log) newSegmentLocked(seq uint64) error {
	name := fmt.Sprintf(segPattern, seq)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.seg = f, seq
	return nil
}

// Append frames and buffers one record, returning its LSN. The record is
// not durable until WaitDurable(lsn) returns; callers must not
// acknowledge the mutation before then.
func (l *Log) Append(op Op, name string, doc []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	lsn := l.nextLSN
	l.scratch = appendPayload(l.scratch[:0], lsn, op, name, doc)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(l.scratch)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(l.scratch, castagnoli))
	if _, err := l.w.Write(hdr[:]); err != nil {
		l.err = err
		return 0, err
	}
	if _, err := l.w.Write(l.scratch); err != nil {
		l.err = err
		return 0, err
	}
	l.nextLSN++
	l.appended = lsn
	l.nAppended.Add(1)
	l.bytes.Add(int64(frameHeader + len(l.scratch)))
	return lsn, nil
}

// WaitDurable blocks until every record up to and including lsn is
// fsync'd, syncing itself if no concurrent waiter has already covered
// it. With a group-commit window configured it first sleeps the window
// so concurrent appends share the fsync.
func (l *Log) WaitDurable(lsn uint64) error {
	if l.synced.Load() >= lsn {
		return nil
	}
	if l.window > 0 {
		time.Sleep(l.window)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if l.synced.Load() >= lsn {
		// A waiter that reached the lock first synced a batch that covers
		// this record too — the group commit.
		return nil
	}
	return l.syncLocked()
}

// syncLocked flushes the buffer and fsyncs the active segment, advancing
// the durable horizon to every appended record. Caller holds mu.
func (l *Log) syncLocked() error {
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return err
	}
	prev := l.synced.Load()
	l.synced.Store(l.appended)
	l.nFsyncs.Add(1)
	l.nFsynced.Add(l.appended - prev)
	return nil
}

// Rotate seals the active segment (flushing and fsyncing it) and starts
// a new one. It returns the LSN of the last record in the sealed
// segment: once the caller's checkpoint covering that LSN is durable,
// RemoveSealedSegments may delete everything but the new active segment.
func (l *Log) Rotate() (lastLSN uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if err := l.syncLocked(); err != nil {
		return 0, err
	}
	if err := l.f.Close(); err != nil {
		l.err = err
		return 0, err
	}
	lastLSN = l.nextLSN - 1
	if err := l.newSegmentLocked(l.seg + 1); err != nil {
		l.err = err
		return 0, err
	}
	l.w = bufio.NewWriterSize(l.f, 1<<16)
	l.segments.Add(1)
	return lastLSN, nil
}

// RemoveSealedSegments deletes every segment except the active one. Call
// only after a checkpoint covering the last Rotate's returned LSN is
// durable; sealed segments hold nothing newer.
func (l *Log) RemoveSealedSegments() error {
	l.mu.Lock()
	active := l.seg
	dir := l.dir
	l.mu.Unlock()
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, s := range segs {
		if s.seq == active {
			continue
		}
		p := filepath.Join(dir, s.name)
		if fi, err := os.Stat(p); err == nil {
			if err := os.Remove(p); err == nil || errors.Is(err, os.ErrNotExist) {
				l.bytes.Add(-fi.Size())
				l.segments.Add(-1)
			} else if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Close flushes, fsyncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.err == nil {
		if err := l.w.Flush(); err == nil {
			l.f.Sync() //nolint:errcheck // best effort on shutdown
		}
	}
	return l.f.Close()
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	// AppendedRecords counts records accepted by Append this process.
	AppendedRecords uint64
	// Fsyncs counts fsync calls on the active segment; FsyncedRecords
	// counts the records those fsyncs made durable. Their ratio is the
	// group-commit batching factor.
	Fsyncs         uint64
	FsyncedRecords uint64
	// Bytes is the on-disk size of all live segments; Segments counts
	// them (sealed + active).
	Bytes    int64
	Segments int64
}

// Stats returns the current counters.
func (l *Log) Stats() Stats {
	return Stats{
		AppendedRecords: l.nAppended.Load(),
		Fsyncs:          l.nFsyncs.Load(),
		FsyncedRecords:  l.nFsynced.Load(),
		Bytes:           l.bytes.Load(),
		Segments:        l.segments.Load(),
	}
}

// appendPayload encodes a record payload (everything the CRC covers).
func appendPayload(buf []byte, lsn uint64, op Op, name string, doc []byte) []byte {
	buf = binary.AppendUvarint(buf, lsn)
	buf = append(buf, byte(op))
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	buf = binary.AppendUvarint(buf, uint64(len(doc)))
	buf = append(buf, doc...)
	return buf
}

// decodePayload is the inverse of appendPayload.
func decodePayload(p []byte) (Record, error) {
	var r Record
	lsn, n := binary.Uvarint(p)
	if n <= 0 {
		return r, errors.New("bad lsn")
	}
	p = p[n:]
	if len(p) < 1 {
		return r, errors.New("missing op")
	}
	r.LSN, r.Op = lsn, Op(p[0])
	p = p[1:]
	nameLen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < nameLen {
		return r, errors.New("bad name length")
	}
	r.Name = string(p[n : n+int(nameLen)])
	p = p[n+int(nameLen):]
	docLen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) != docLen {
		return r, errors.New("bad doc length")
	}
	if docLen > 0 {
		r.Doc = append([]byte(nil), p[n:]...)
	}
	return r, nil
}

type segment struct {
	name string
	seq  uint64
}

// listSegments returns the log's segments sorted by sequence number.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		seq, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue // not ours
		}
		segs = append(segs, segment{name: name, seq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

type replayResult struct {
	valid    int64 // bytes of the segment holding valid records
	scanned  int
	replayed int
	torn     int64
	lastLSN  uint64
}

// replaySegment parses one segment, applying records with LSN >
// afterLSN. A torn tail (short frame, bad CRC, garbage length,
// non-monotone LSN — anything pure truncation or a crashed write can
// leave) is truncated off the final segment; in a sealed segment it is
// corruption and an error. prevLSN is the highest LSN of earlier
// segments, extending the monotonicity check across segment boundaries.
func replaySegment(path string, last bool, afterLSN, prevLSN uint64, apply func(Record) error) (replayResult, error) {
	var res replayResult
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	lastLSN := prevLSN
	var off int64
	torn := func() (replayResult, error) {
		fi, err := f.Stat()
		if err != nil {
			return res, err
		}
		res.torn = fi.Size() - res.valid
		res.lastLSN = lastLSN
		if !last {
			return res, fmt.Errorf("torn record at offset %d of sealed segment", res.valid)
		}
		if res.torn > 0 {
			if err := os.Truncate(path, res.valid); err != nil {
				return res, err
			}
		}
		return res, nil
	}
	for {
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				res.lastLSN = lastLSN
				return res, nil // clean end
			}
			return torn() // partial header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxRecordLen {
			return torn()
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return torn() // partial payload
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return torn()
		}
		rec, err := decodePayload(payload)
		if err != nil || rec.LSN <= lastLSN {
			// CRC-valid but undecodable or out of order: treat as the
			// start of garbage, not a fatal error — recover the prefix.
			return torn()
		}
		off += frameHeader + int64(n)
		res.valid = off
		res.scanned++
		lastLSN = rec.LSN
		if rec.LSN > afterLSN && apply != nil {
			if err := apply(rec); err != nil {
				return res, fmt.Errorf("replay record lsn=%d: %w", rec.LSN, err)
			}
			res.replayed++
		}
	}
}

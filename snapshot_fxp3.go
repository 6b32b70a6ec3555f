package flexpath

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"flexpath/internal/fxp3"
	"flexpath/internal/ir"
	"flexpath/internal/mmapio"
	"flexpath/internal/stats"
	"flexpath/internal/wal"
	"flexpath/internal/xmltree"
)

// FXP3 is the mmap-friendly successor to the FXP2 indexed snapshot: a
// checksummed section directory over offset-based, fixed-width columns
// that are the tree, statistics and index layers' in-memory layout, so
// loading a mapped file slices it and decodes nothing (see
// internal/fxp3). Two properties matter operationally:
//
//   - Opening costs pages, not the file. fxp3.Parse touches only the
//     header and directory; each section's checksum, and the validation
//     of its column values, run on first access, which over mmap is
//     what faults its pages in, and are remembered on the fxp3.File.
//
//   - A loaded document is its mapped columns: text bytes, node
//     columns, statistics and postings stay file-backed, and the heap
//     holds headers, the tag table and caches. The pages are clean and
//     the kernel reclaims them under pressure, so a collection larger
//     than RAM serves from whatever working set fits (see
//     Collection.SetResidency).
//
// The cost of the aliasing is a lifetime rule: answers, snippets and
// the document's own strings point into the mapping, so the mapping
// must stay open as long as anything derived from the document is
// reachable. Document.Close releases it; the residency layer never
// unmaps on eviction for exactly this reason.

// SaveFXP3Snapshot writes an FXP3 snapshot of the document.
func (d *Document) SaveFXP3Snapshot(w io.Writer) error {
	sections := []fxp3.Section{
		{ID: fxp3.SectionMeta, Data: encodeFXP3Meta(d)},
		{ID: fxp3.SectionTree, Data: d.tree.EncodeColumnar()},
		{ID: fxp3.SectionStats, Data: d.stats.EncodeColumnar()},
		{ID: fxp3.SectionIndex, Data: d.index.EncodeColumnar()},
	}
	return fxp3.Write(w, sections)
}

// SaveFXP3SnapshotFile writes an FXP3 snapshot to path atomically (temp
// file, fsync, rename), so a crash mid-save never corrupts an existing
// snapshot.
func (d *Document) SaveFXP3SnapshotFile(path string) error {
	return wal.WriteFileAtomic(path, d.SaveFXP3Snapshot)
}

// SnapshotMeta is the small FXP3 meta section: enough to describe a
// document for listings, logs and admission decisions without decoding
// (or faulting in) the tree, statistics or index sections.
type SnapshotMeta struct {
	// Nodes is the number of element nodes in the tree.
	Nodes int
	// Tags is the number of distinct element tags.
	Tags int
	// SourceBytes is the size of the XML source the snapshot was built
	// from.
	SourceBytes int64
	// BM25 reports whether the index uses BM25 term weighting.
	BM25 bool
}

func encodeFXP3Meta(d *Document) []byte {
	e := &fxp3.Enc{}
	e.U64(uint64(d.tree.Len()))
	e.U64(uint64(d.tree.NumTags()))
	e.U64(uint64(d.tree.SourceBytes()))
	var bm25 uint64
	if d.index.IsBM25() {
		bm25 = 1
	}
	e.U64(bm25)
	return e.Finish()
}

func decodeFXP3Meta(payload []byte) (SnapshotMeta, error) {
	dec := fxp3.NewDec(payload)
	m := SnapshotMeta{
		Nodes:       int(dec.U64()),
		Tags:        int(dec.U64()),
		SourceBytes: int64(dec.U64()),
	}
	m.BM25 = dec.U64() != 0
	if err := dec.Err(); err != nil {
		return SnapshotMeta{}, fmt.Errorf("%w: meta section: %w", ErrCorruptSnapshot, err)
	}
	return m, nil
}

// ReadFXP3Meta reads only the meta section of the FXP3 snapshot at
// path: the header, directory and one small section — the tree, stats
// and postings are neither decoded nor faulted in. This is what a cold
// collection member costs at open.
func ReadFXP3Meta(path string) (SnapshotMeta, error) {
	m, err := mmapio.Open(path)
	if err != nil {
		return SnapshotMeta{}, err
	}
	defer m.Close()
	f, err := fxp3.Parse(m.Bytes())
	if err != nil {
		return SnapshotMeta{}, wrapSnapshotPath(path, corrupt(err))
	}
	payload, err := f.Section(fxp3.SectionMeta)
	if err != nil {
		return SnapshotMeta{}, wrapSnapshotPath(path, corrupt(err))
	}
	meta, err := decodeFXP3Meta(payload)
	if err != nil {
		return SnapshotMeta{}, wrapSnapshotPath(path, err)
	}
	return meta, nil
}

// corrupt folds lower-layer corruption sentinels (fxp3.ErrCorrupt, the
// codec layers' validation errors) into ErrCorruptSnapshot, so callers
// test one sentinel regardless of which layer caught the damage.
func corrupt(err error) error {
	if err == nil || errors.Is(err, ErrCorruptSnapshot) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
}

// documentFromFXP3 turns the three data sections of a parsed FXP3
// container into a searchable document. Decoding slices the sections'
// columns in place and allocates nothing per node or per term; the
// checksums and the structural validation of every column value run the
// first time this file is decoded and are remembered on f, so decoding
// it again (a re-fault after eviction) costs a handful of headers and
// empty caches. On little-endian hosts the document aliases data's
// backing memory; the caller owns keeping that memory alive (and
// attaching the mapping to the document, when there is one).
func documentFromFXP3(f *fxp3.File) (*Document, error) {
	treeB, err := f.Section(fxp3.SectionTree)
	if err != nil {
		return nil, corrupt(err)
	}
	tree, err := xmltree.DecodeColumnar(treeB)
	if err != nil {
		return nil, corrupt(err)
	}
	statsB, err := f.Section(fxp3.SectionStats)
	if err != nil {
		return nil, corrupt(err)
	}
	st, err := stats.DecodeColumnar(tree, statsB)
	if err != nil {
		return nil, corrupt(err)
	}
	ixB, err := f.Section(fxp3.SectionIndex)
	if err != nil {
		return nil, corrupt(err)
	}
	ix, err := ir.DecodeColumnar(tree, ixB)
	if err != nil {
		return nil, corrupt(err)
	}
	err = f.Validated(func() error {
		if err := tree.Validate(); err != nil {
			return err
		}
		if err := st.Validate(); err != nil {
			return err
		}
		return ix.Validate()
	})
	if err != nil {
		return nil, corrupt(err)
	}
	return assembleDocument(tree, st, ix), nil
}

// LoadFXP3Snapshot restores a document from an FXP3 snapshot stream.
// The stream is buffered in memory; prefer LoadFXP3SnapshotFile, which
// maps the file and lets the kernel own the bytes.
func LoadFXP3Snapshot(r io.Reader) (*Document, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("flexpath: snapshot: %w", err)
	}
	f, err := fxp3.Parse(buf.Bytes())
	if err != nil {
		return nil, corrupt(err)
	}
	return documentFromFXP3(f)
}

// LoadFXP3SnapshotFile restores a document from the FXP3 snapshot at
// path by mapping it: the decoded document aliases the mapping, whose
// pages stay file-backed and kernel-reclaimable. The mapping is owned
// by the returned document; Document.Close releases it. Load errors
// name the file.
func LoadFXP3SnapshotFile(path string) (*Document, error) {
	m, err := mmapio.Open(path)
	if err != nil {
		return nil, err
	}
	d, err := documentFromMapping(m)
	if err != nil {
		m.Close()
		return nil, wrapSnapshotPath(path, err)
	}
	return d, nil
}

// documentFromMapping parses and decodes an open mapping into a
// document that owns it. On error the caller closes the mapping.
func documentFromMapping(m *mmapio.Mapping) (*Document, error) {
	f, err := fxp3.Parse(m.Bytes())
	if err != nil {
		return nil, corrupt(err)
	}
	d, err := documentFromFXP3(f)
	if err != nil {
		return nil, err
	}
	d.mp = m
	return d, nil
}

// Close releases the file mapping backing a document loaded with
// LoadFXP3SnapshotFile. After Close, every string, answer and snippet
// derived from the document is invalid — call it only when nothing
// derived from the document is reachable. Documents that own no
// mapping (XML loads, FXP2 snapshots, big-endian FXP3 loads, which
// decode-copy) ignore Close. Close is idempotent.
func (d *Document) Close() error {
	if d.mp == nil {
		return nil
	}
	return d.mp.Close()
}

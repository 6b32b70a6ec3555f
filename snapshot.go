package flexpath

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"flexpath/internal/exec"
	"flexpath/internal/ir"
	"flexpath/internal/plancache"
	"flexpath/internal/planner"
	"flexpath/internal/stats"
	"flexpath/internal/xmltree"
)

// FXP2 is the legacy indexed snapshot: magic "FXP2", then three
// length-prefixed sections (tree "FXT1", statistics "FXS1", index
// "FXI1"), each a varint stream. Nothing writes it any more — FXP3
// (snapshot_fxp3.go) is the only format saved — and this reader stays
// for one release so existing .fxp2 files and WAL records seeded from
// them keep loading, through LoadAuto and WAL replay only. It is pinned
// by testdata/golden_indexed.fxp2.
var indexedMagic = [4]byte{'F', 'X', 'P', '2'}

var (
	// ErrCorruptSnapshot reports a snapshot, or a checkpoint manifest
	// naming snapshots, that is structurally invalid, truncated, or
	// checksum-failing. Every load path wraps corruption in it, so callers
	// can distinguish a damaged file from an I/O failure with errors.Is
	// and react (quarantine, fall back to XML, refuse to serve) without
	// string matching. A snapshot that fails with ErrCorruptSnapshot was
	// not partially loaded: no Document is returned.
	ErrCorruptSnapshot = errors.New("flexpath: corrupt snapshot")
	// ErrLegacySnapshot reports a plain FXT1 tree snapshot, a format no
	// release reads any more: regenerate the file from its XML source
	// (flexpath -doc x.xml -save-fxp3 x.fxp3).
	ErrLegacySnapshot = errors.New("flexpath: unsupported legacy FXT1 snapshot, regenerate it from XML")
)

// snapshotMagic returns the snapshot magic b starts with ("FXP3", "FXP2"
// or "FXT1"), or "" when b is not a snapshot and should parse as XML.
func snapshotMagic(b []byte) string {
	if len(b) >= 4 {
		switch m := string(b[:4]); m {
		case "FXP3", "FXP2", "FXT1":
			return m
		}
	}
	return ""
}

// loadIndexedSnapshot restores a document with its indexes from the
// bytes of an FXP2 snapshot. Corrupt or truncated input fails with an
// error wrapping ErrCorruptSnapshot; a partial index is never returned.
func loadIndexedSnapshot(data []byte) (*Document, error) {
	if len(data) < len(indexedMagic) {
		return nil, fmt.Errorf("%w: shorter than the magic", ErrCorruptSnapshot)
	}
	if [4]byte(data[:4]) != indexedMagic {
		return nil, fmt.Errorf("%w: not an indexed snapshot (bad magic)", ErrCorruptSnapshot)
	}
	rest := data[4:]
	// section slices the next length-prefixed section off rest. A length
	// pointing past the remaining bytes is rejected here, before any
	// parsing, not discovered as a confusing EOF deep inside a section.
	section := func(name string) (io.Reader, error) {
		n, w := binary.Uvarint(rest)
		if w <= 0 {
			return nil, fmt.Errorf("%w: truncated before the %s section", ErrCorruptSnapshot, name)
		}
		if n > uint64(len(rest)-w) {
			return nil, fmt.Errorf("%w: %s section declares %d bytes with only %d remaining",
				ErrCorruptSnapshot, name, n, len(rest)-w)
		}
		sec := rest[w : w+int(n)]
		rest = rest[w+int(n):]
		return bytes.NewReader(sec), nil
	}
	sec, err := section("tree")
	if err != nil {
		return nil, err
	}
	tree, err := xmltree.ReadBinary(sec)
	if err != nil {
		return nil, corrupt(err)
	}
	if sec, err = section("stats"); err != nil {
		return nil, err
	}
	st, err := stats.ReadStatsBinary(tree, sec)
	if err != nil {
		return nil, corrupt(err)
	}
	if sec, err = section("index"); err != nil {
		return nil, err
	}
	ix, err := ir.ReadIndexBinary(tree, sec)
	if err != nil {
		return nil, corrupt(err)
	}
	return assembleDocument(tree, st, ix), nil
}

// assembleDocument wires restored tree/stats/index into a searchable
// Document, the shared tail of every snapshot load path.
func assembleDocument(tree *xmltree.Document, st *stats.Stats, ix *ir.Index) *Document {
	est := stats.NewEstimator(st, ix)
	d := &Document{
		tree:  tree,
		index: ix,
		stats: st,
		est:   est,
		pl:    planner.New(est),
		ev:    exec.NewEvaluator(tree, ix),
	}
	d.pc.Store(plancache.New(DefaultPlanCacheCapacity))
	return d
}

// wrapSnapshotPath adds the file path to a snapshot load error, so a
// failure during a multi-snapshot collection load names the file that
// broke instead of leaving the operator to bisect the directory.
func wrapSnapshotPath(path string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("flexpath: snapshot %s: %w", path, err)
}

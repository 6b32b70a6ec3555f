package flexpath

import (
	"errors"
	"fmt"
	"sync/atomic"

	"flexpath/internal/core"
	"flexpath/internal/ir"
	"flexpath/internal/lru"
	"flexpath/internal/stats"
	"flexpath/internal/xmltree"
)

var (
	// ErrCorruptSnapshot reports a snapshot, or a checkpoint manifest
	// naming snapshots, that is structurally invalid, truncated, or
	// checksum-failing. Every load path wraps corruption in it, so callers
	// can distinguish a damaged file from an I/O failure with errors.Is
	// and react (quarantine, fall back to XML, refuse to serve) without
	// string matching. A snapshot that fails with ErrCorruptSnapshot was
	// not partially loaded: no Document is returned.
	ErrCorruptSnapshot = errors.New("flexpath: corrupt snapshot")
	// ErrLegacySnapshot reports an FXP2 indexed snapshot or a plain FXT1
	// tree snapshot, formats of older releases that this one no longer
	// reads: regenerate the file from its XML source
	// (flexpath -doc x.xml -save-fxp3 x.fxp3).
	ErrLegacySnapshot = errors.New("flexpath: unsupported legacy FXP2 or FXT1 snapshot, regenerate it from XML")
)

// snapshotMagic is the one rule that decides a file's format from its
// first bytes: it reports whether b starts with the FXP3 magic, fails
// with ErrLegacySnapshot on the FXP2 and FXT1 magics of older releases
// (recognised only to be refused rather than reported as an XML syntax
// error), and otherwise leaves b to parse as XML.
func snapshotMagic(b []byte) (isFXP3 bool, err error) {
	if len(b) >= 4 {
		switch string(b[:4]) {
		case "FXP3":
			return true, nil
		case "FXP2", "FXT1":
			return false, ErrLegacySnapshot
		}
	}
	return false, nil
}

// serials numbers documents for result-cache parts.
var serials atomic.Uint64

// assembleDocument wires a tree with its statistics and index into a
// searchable Document, the shared tail of every construction path.
func assembleDocument(tree *xmltree.Document, st *stats.Stats, ix *ir.Index) *Document {
	d := &Document{
		tree:   tree,
		index:  ix,
		stats:  st,
		est:    stats.NewEstimator(st, ix),
		serial: serials.Add(1),
		pc:     lru.New[*core.Template](DefaultPlanCacheCapacity),
	}
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

package flexpath

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexpath/internal/wal"
)

// TestLoadAuto: an XML file loads as XML (the FXP3 half is
// TestFXP3FileMetaAndAuto), and a missing or tiny non-XML file fails.
func TestLoadAuto(t *testing.T) {
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(xmlPath, []byte(articlesXML), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := LoadAuto(xmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := LoadString(articlesXML); !bytes.Equal(fxp3Bytes(t, doc), fxp3Bytes(t, want)) {
		t.Error("LoadAuto of an XML file differs from parsing it")
	}
	if _, err := LoadAuto(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
	// A tiny non-XML non-snapshot file must fail cleanly.
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAuto(junk); err == nil {
		t.Error("junk accepted")
	}
}

// TestLegacySnapshotsAreTypedErrors: the FXP2 and FXT1 snapshots of older
// releases are refused with ErrLegacySnapshot on every path a document's
// bytes arrive by — a file (loaded, added to a collection whatever its
// extension, or given to an entry point that takes FXP3 only), raw
// bytes, a durable seed, and a WAL record
// an older release logged — never parsed as XML, and never leaving a
// collection open.
func TestLegacySnapshotsAreTypedErrors(t *testing.T) {
	for _, magic := range []string{"FXP2", "FXT1"} {
		data := append([]byte(magic), 0x05, 'a', 'b', 'c') // the magic alone decides
		cases := []struct {
			path string
			run  func() error
		}{
			{"LoadAuto", func() error {
				path := filepath.Join(t.TempDir(), "old.snap")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				_, err := LoadAuto(path)
				if err != nil && !strings.Contains(err.Error(), path) {
					t.Errorf("%s via LoadAuto: %v does not name the file", magic, err)
				}
				return err
			}},
			{"Collection.AddFile", func() error {
				// The magic decides, not the .fxp3 name: this is a legacy
				// snapshot, not a corrupt FXP3 one.
				path := filepath.Join(t.TempDir(), "old.fxp3")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				c := NewCollection()
				defer c.Close()
				err := c.AddFile(path)
				if err != nil && !strings.Contains(err.Error(), path) {
					t.Errorf("%s via AddFile: %v does not name the file", magic, err)
				}
				if c.Len() != 0 {
					t.Errorf("%s via AddFile: the collection holds %v", magic, c.Names())
				}
				return err
			}},
			{"LoadFXP3SnapshotFile", func() error {
				path := filepath.Join(t.TempDir(), "old.fxp3")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				_, err := LoadFXP3SnapshotFile(path)
				if err != nil && !strings.Contains(err.Error(), path) {
					t.Errorf("%s via LoadFXP3SnapshotFile: %v does not name the file", magic, err)
				}
				return err
			}},
			{"ReadFXP3Meta", func() error {
				path := filepath.Join(t.TempDir(), "old.fxp3")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				_, err := ReadFXP3Meta(path)
				if err != nil && !strings.Contains(err.Error(), path) {
					t.Errorf("%s via ReadFXP3Meta: %v does not name the file", magic, err)
				}
				return err
			}},
			{"Collection.AddSnapshotFile", func() error {
				path := filepath.Join(t.TempDir(), "old.fxp3")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				c := NewCollection()
				defer c.Close()
				err := c.AddSnapshotFile("old", path)
				if err != nil && !strings.Contains(err.Error(), path) {
					t.Errorf("%s via AddSnapshotFile: %v does not name the file", magic, err)
				}
				if c.Len() != 0 {
					t.Errorf("%s via AddSnapshotFile: the collection holds %v", magic, c.Names())
				}
				return err
			}},
			{"loadDocumentBytes", func() error {
				_, err := loadDocumentBytes(data)
				return err
			}},
			{"durable Collection.AddFile", func() error {
				dir := t.TempDir()
				path := filepath.Join(t.TempDir(), "old.fxp3")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				dc, err := OpenDurableCollection(dir, DurableOptions{})
				if err != nil {
					t.Fatal(err)
				}
				err = dc.AddFile(path)
				if err != nil && !strings.Contains(err.Error(), path) {
					t.Errorf("%s via durable AddFile: %v does not name the file", magic, err)
				}
				dc.Close()
				dc, reopenErr := OpenDurableCollection(dir, DurableOptions{})
				if reopenErr != nil {
					t.Fatal(reopenErr)
				}
				defer dc.Close()
				if dc.Len() != 0 {
					t.Errorf("%s via durable AddFile: the reopened collection holds %v", magic, dc.Names())
				}
				return err
			}},
			{"WAL replay", func() error {
				dir := t.TempDir()
				log, _, err := wal.Open(dir, wal.Options{}, func(wal.Record) error { return nil })
				if err != nil {
					t.Fatal(err)
				}
				lsn, err := log.Append(wal.OpAdd, "old", data)
				if err == nil {
					err = log.WaitDurable(lsn)
				}
				if err := errors.Join(err, log.Close()); err != nil {
					t.Fatal(err)
				}
				dc, err := OpenDurableCollection(dir, DurableOptions{})
				if dc != nil {
					dc.Close()
					t.Errorf("%s via WAL replay: the open returned a collection", magic)
				}
				return err
			}},
		}
		for _, c := range cases {
			if err := c.run(); !errors.Is(err, ErrLegacySnapshot) {
				t.Errorf("%s via %s: err = %v, want ErrLegacySnapshot", magic, c.path, err)
			}
		}
	}
}

// TestSnapshotFilePartialWriteSafe simulates a save that dies midway —
// a crash, a full disk — and checks the previously saved snapshot at the
// same path stays loadable. SaveFXP3SnapshotFile writes through
// wal.WriteFileAtomic, so the partial bytes only ever land in a temp
// file that gets cleaned up, never over the visible file.
func TestSnapshotFilePartialWriteSafe(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.fxp3")
	if err := doc.SaveFXP3SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted save: emit a prefix of real snapshot bytes, then fail,
	// exactly like a process killed mid-write.
	boom := errors.New("simulated crash mid-save")
	saveErr := wal.WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(good[:len(good)/2]); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(saveErr, boom) {
		t.Fatalf("partial save error not propagated: %v", saveErr)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, good) {
		t.Fatal("visible snapshot file changed after interrupted save")
	}
	if d, err := LoadAuto(path); err != nil {
		t.Fatalf("snapshot unloadable after interrupted save: %v", err)
	} else {
		d.Close() //nolint:errcheck
	}
	// No temp litter left behind for operators to trip over.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "doc.fxp3" {
			t.Fatalf("unexpected file left in snapshot dir: %s", e.Name())
		}
	}

	// A successful re-save replaces the file atomically.
	if err := doc.SaveFXP3SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if d, err := LoadFXP3SnapshotFile(path); err != nil {
		t.Fatalf("re-saved snapshot unloadable: %v", err)
	} else {
		d.Close() //nolint:errcheck
	}
}

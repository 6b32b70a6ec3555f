package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Checkpoint manifest: the one small file that says which per-member
// snapshot files in the log directory make up the corpus as of an LSN,
// and so bounds WAL replay. The member files are opaque to this package
// (the caller writes one FXP3 snapshot per document, under a name from
// MemberFile, with WriteFileSync); the manifest adds the covered LSN, the
// collection order and a trailing CRC32C, so a damaged manifest is
// detected rather than half-read.
//
// Layout: magic "FXM1", uvarint lsn, uvarint count, count x (uvarint
// name length, name, uvarint file length, file), then a 4-byte
// little-endian CRC32C of everything before it.
//
// There is exactly one manifest per directory, replaced atomically
// (WriteFileAtomic): a crash leaves either the previous manifest or the
// new one, never a mixture, and there is no older state to fall back to
// — the log segments a manifest covers are pruned once it is durable, so
// resolving a damaged manifest to anything else would silently drop
// acknowledged mutations. Member files no manifest names (a checkpoint
// that crashed before its manifest rename, or members a newer manifest
// dropped) are garbage; Sweep deletes them.
var manifestMagic = [4]byte{'F', 'X', 'M', '1'}

const (
	// ManifestName is the manifest's file name inside the log directory.
	ManifestName = "MANIFEST"

	memberPrefix = "member-"
	memberSuffix = ".fxp3"

	legacyPrefix = "checkpoint-"
	legacySuffix = ".fxpc"
)

var (
	// ErrCorruptManifest reports a manifest that exists but fails
	// verification: truncated, checksum mismatch, malformed entries.
	ErrCorruptManifest = errors.New("wal: corrupt checkpoint manifest")
	// ErrLegacyCheckpoint reports a log directory that still holds a
	// checkpoint-*.fxpc container from a release that wrote whole-corpus
	// checkpoints. The segments it covered are gone, so the directory
	// cannot be recovered by this build; it is never read as empty.
	ErrLegacyCheckpoint = errors.New("wal: directory holds a checkpoint-*.fxpc container written by an older release")
)

// Member is one manifest entry: a document name and the member file,
// relative to the log directory, holding its snapshot.
type Member struct {
	Name string
	File string
}

// Manifest is a checkpoint: the corpus, in collection order, as of every
// record with LSN <= LSN.
type Manifest struct {
	LSN     uint64
	Members []Member
}

// MemberFile names the member file checkpoint lsn writes for the member
// at position i. LSNs only grow and a checkpoint writes a position at
// most once, so a name is never reused for different content while a
// manifest refers to it.
func MemberFile(lsn uint64, i int) string {
	return fmt.Sprintf("%s%016x-%d%s", memberPrefix, lsn, i, memberSuffix)
}

func isMemberFile(name string) bool {
	return strings.HasPrefix(name, memberPrefix) && strings.HasSuffix(name, memberSuffix) &&
		!strings.ContainsAny(name, `/\`)
}

// WriteManifest atomically replaces the directory's manifest. Every
// member file it names must already be durable (written with
// WriteFileSync and followed by a SyncDir).
func WriteManifest(dir string, m Manifest) error {
	buf := append([]byte(nil), manifestMagic[:]...)
	buf = binary.AppendUvarint(buf, m.LSN)
	buf = binary.AppendUvarint(buf, uint64(len(m.Members)))
	for _, e := range m.Members {
		buf = binary.AppendUvarint(buf, uint64(len(e.Name)))
		buf = append(buf, e.Name...)
		buf = binary.AppendUvarint(buf, uint64(len(e.File)))
		buf = append(buf, e.File...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return WriteFileAtomic(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

// ReadManifest reads the directory's manifest. A directory (or manifest)
// that does not exist — a log never checkpointed — reads as the zero
// Manifest, which covers nothing. A manifest that exists but does not
// verify is ErrCorruptManifest, and a directory holding a legacy
// checkpoint container is ErrLegacyCheckpoint.
func ReadManifest(dir string) (Manifest, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return Manifest{}, nil
	}
	if err != nil {
		return Manifest{}, err
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, legacyPrefix) && strings.HasSuffix(name, legacySuffix) {
			return Manifest{}, fmt.Errorf("%w: %s", ErrLegacyCheckpoint, filepath.Join(dir, name))
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return Manifest{}, nil
	}
	if err != nil {
		return Manifest{}, err
	}
	m, err := decodeManifest(raw)
	if err != nil {
		return Manifest{}, fmt.Errorf("%w: %v", ErrCorruptManifest, err)
	}
	return m, nil
}

func decodeManifest(raw []byte) (Manifest, error) {
	var m Manifest
	if len(raw) < len(manifestMagic)+4 || string(raw[:4]) != string(manifestMagic[:]) {
		return m, errors.New("bad magic")
	}
	body, sum := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(sum) {
		return m, errors.New("checksum mismatch")
	}
	p := body[4:]
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, errors.New("truncated varint")
		}
		p = p[n:]
		return v, nil
	}
	str := func() (string, error) {
		n, err := uvarint()
		if err != nil {
			return "", err
		}
		if uint64(len(p)) < n {
			return "", errors.New("truncated string")
		}
		s := string(p[:n])
		p = p[n:]
		return s, nil
	}
	var err error
	if m.LSN, err = uvarint(); err != nil {
		return m, err
	}
	count, err := uvarint()
	if err != nil {
		return m, err
	}
	if count > uint64(len(p)) {
		return m, errors.New("implausible member count")
	}
	m.Members = make([]Member, count)
	for i := range m.Members {
		e := &m.Members[i]
		if e.Name, err = str(); err != nil {
			return m, err
		}
		if e.File, err = str(); err != nil {
			return m, err
		}
		if !isMemberFile(e.File) {
			return m, fmt.Errorf("member %q names %q, not a member file", e.Name, e.File)
		}
	}
	if len(p) != 0 {
		return m, errors.New("trailing bytes")
	}
	return m, nil
}

// Sweep deletes what no manifest refers to: member files m does not
// name, and temp files an interrupted manifest write left behind. Call
// it only while no checkpoint is writing member files.
func Sweep(dir string, m Manifest) error {
	keep := make(map[string]bool, len(m.Members))
	for _, e := range m.Members {
		keep[e.File] = true
	}
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var firstErr error
	for _, e := range entries {
		name := e.Name()
		if (isMemberFile(name) && !keep[name]) || strings.HasPrefix(name, ManifestName+".tmp-") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

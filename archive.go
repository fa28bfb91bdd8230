package fixedpsnr

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"fixedpsnr/internal/codec"
)

// Archive container: many compressed field streams in one blob, so a whole
// simulation snapshot (e.g. the 79 fields of a CESM-ATM dump) travels as
// one object while each field keeps its own header, bound, and codec.
//
// Archive v2 layout:
//
//	magic "FPSA"      4 bytes
//	version           1 byte (= 2)
//	entry streams     concatenated, no framing (the index locates them)
//	index:
//	  index magic "FPSI"   4 bytes
//	  count                uvarint
//	  per entry:           uvarint name length | name bytes |
//	                       uvarint offset (from file start) | uvarint length
//	footer:
//	  index offset    8 bytes uint64 LE
//	  footer magic "FPSE"  4 bytes
//
// The tail index makes ExtractField and ArchiveInfo O(1) in the number of
// uninvolved entries: a reader seeks to the footer, loads the index, and
// touches only the entries it needs — no sequential scan, no header
// parsing of other fields. The index is written last so the whole archive
// streams through an io.Writer without buffering (see ArchiveWriter).
//
// Version 1 archives (length-prefixed entries after the count, no index)
// remain readable; writers always produce v2.

// archiveMagic identifies an archive blob.
var archiveMagic = [4]byte{'F', 'P', 'S', 'A'}

// archiveIndexMagic opens the v2 tail index block.
var archiveIndexMagic = [4]byte{'F', 'P', 'S', 'I'}

// archiveFooterMagic closes a v2 archive.
var archiveFooterMagic = [4]byte{'F', 'P', 'S', 'E'}

const (
	archiveV1 = 1
	archiveV2 = 2
	// archiveFooterLen is the fixed v2 footer size: 8-byte index offset
	// plus the footer magic.
	archiveFooterLen = 12
	// maxArchiveEntries bounds the entry count a reader will accept.
	maxArchiveEntries = 1 << 20
)

// archiveEntry locates one stream inside an archive.
type archiveEntry struct {
	name   string
	off    int64
	length int64
}

// CompressFields compresses every field with the same options into one
// archive, parallelizing across fields: as in Encoder.EncodeBatch, the
// Workers budget (non-positive: all CPUs) is divided evenly across the
// fields, at least one worker each, so a 2-field batch on 16 cores runs
// 8 workers per field. In ModePSNR every
// field gets its own Eq. 8 bound from its own value range — the paper's
// batch use case; in ModeRatio every field is steered to the shared
// TargetRatio, so the whole snapshot lands on it too.
//
// CompressFields is the one-shot wrapper over Encoder.EncodeBatch; hold
// an Encoder directly for cancellation and cross-call buffer reuse. For
// snapshots too large to hold in memory at once, use ArchiveWriter
// instead: it produces the identical format one field at a time.
func CompressFields(fields []*Field, opt Options) ([]byte, []*Result, error) {
	if len(fields) == 0 {
		return nil, nil, fmt.Errorf("fixedpsnr: no fields to archive")
	}
	enc, err := NewEncoder(WithOptions(opt))
	if err != nil {
		return nil, nil, err
	}
	streams, results, err := enc.EncodeBatch(context.Background(), fields)
	if err != nil {
		return nil, nil, err
	}

	total := 5 + archiveFooterLen
	for _, s := range streams {
		total += len(s) + binary.MaxVarintLen64
	}
	var buf bytes.Buffer
	buf.Grow(total)
	aw, err := NewArchiveWriter(&buf)
	if err != nil {
		return nil, nil, err
	}
	for i, s := range streams {
		// Register under the field's name even if the stream header
		// spells it differently (it never does; belt and braces).
		if err := aw.writeStreamNamed(fields[i].Name, s); err != nil {
			return nil, nil, err
		}
	}
	if err := aw.Close(); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), results, nil
}

// v1Entry is one stream located by the v1 scanner: its bytes plus its
// offset in the archive.
type v1Entry struct {
	off  int64
	blob []byte
}

// archiveEntriesV1 splits a version-1 archive into its per-field streams
// (no decompression). v1 has no index: entries are length-prefixed and
// must be scanned in order. The single walk records each entry's offset
// so callers never re-parse the framing.
func archiveEntriesV1(data []byte) ([]v1Entry, error) {
	if len(data) < 6 {
		return nil, fmt.Errorf("fixedpsnr: archive too short")
	}
	if [4]byte(data[:4]) != archiveMagic {
		return nil, fmt.Errorf("fixedpsnr: bad archive magic %q", data[:4])
	}
	if data[4] != archiveV1 {
		return nil, fmt.Errorf("fixedpsnr: unsupported archive version %d", data[4])
	}
	b := data[5:]
	count, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, fmt.Errorf("fixedpsnr: truncated archive count")
	}
	if count > maxArchiveEntries {
		return nil, fmt.Errorf("fixedpsnr: unreasonable archive count %d", count)
	}
	b = b[k:]
	pos := int64(5 + k)
	entries := make([]v1Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		l, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, fmt.Errorf("fixedpsnr: truncated entry %d length", i)
		}
		b = b[k:]
		pos += int64(k)
		if uint64(len(b)) < l {
			return nil, fmt.Errorf("fixedpsnr: entry %d truncated (%d < %d)", i, len(b), l)
		}
		entries = append(entries, v1Entry{off: pos, blob: b[:l]})
		b = b[l:]
		pos += int64(l)
	}
	return entries, nil
}

// DecompressArchive reconstructs every field in the archive, in order,
// parallelizing across entries.
func DecompressArchive(data []byte) ([]*Field, error) {
	ar, err := openArchiveBytes(data)
	if err != nil {
		return nil, err
	}
	return ar.DecompressAll()
}

// ArchiveInfo returns the stream headers of every entry without
// decompressing any payload.
func ArchiveInfo(data []byte) ([]*StreamInfo, error) {
	ar, err := openArchiveBytes(data)
	if err != nil {
		return nil, err
	}
	infos := make([]*StreamInfo, ar.Len())
	for i := range infos {
		h, err := ar.Info(i)
		if err != nil {
			return nil, err
		}
		infos[i] = h
	}
	return infos, nil
}

// ExtractField decompresses only the named field from an archive. On a
// v2 archive this reads the tail index and the one matching entry; no
// other entry is parsed.
func ExtractField(data []byte, name string) (*Field, *StreamInfo, error) {
	ar, err := openArchiveBytes(data)
	if err != nil {
		return nil, nil, err
	}
	return ar.Extract(name)
}

// ExtractRegion decompresses only the sub-block starting at off with
// extents ext of the named field from an archive: the tail index locates
// the entry, the entry's chunk table locates the chunks, and only the
// intersecting chunks are decoded.
func ExtractRegion(data []byte, name string, off, ext []int) (*Field, *StreamInfo, error) {
	ar, err := openArchiveBytes(data)
	if err != nil {
		return nil, nil, err
	}
	return ar.ExtractRegion(name, off, ext)
}

// parseArchiveIndex decodes a v2 tail index block.
func parseArchiveIndex(b []byte, dataEnd int64) ([]archiveEntry, error) {
	if len(b) < 5 {
		return nil, fmt.Errorf("fixedpsnr: archive index too short")
	}
	if [4]byte(b[:4]) != archiveIndexMagic {
		return nil, fmt.Errorf("fixedpsnr: bad archive index magic %q", b[:4])
	}
	b = b[4:]
	count, b, err := codec.ReadUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("fixedpsnr: truncated archive index count")
	}
	if count > maxArchiveEntries {
		return nil, fmt.Errorf("fixedpsnr: unreasonable archive count %d", count)
	}
	entries := make([]archiveEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		nameLen, rest, err := codec.ReadUvarint(b)
		if err != nil {
			return nil, fmt.Errorf("fixedpsnr: index entry %d: truncated name length", i)
		}
		if nameLen > 1<<20 || uint64(len(rest)) < nameLen {
			return nil, fmt.Errorf("fixedpsnr: index entry %d: bad name length %d", i, nameLen)
		}
		name := string(rest[:nameLen])
		rest = rest[nameLen:]
		off, rest, err := codec.ReadUvarint(rest)
		if err != nil {
			return nil, fmt.Errorf("fixedpsnr: index entry %d: truncated offset", i)
		}
		length, rest, err := codec.ReadUvarint(rest)
		if err != nil {
			return nil, fmt.Errorf("fixedpsnr: index entry %d: truncated length", i)
		}
		// Compare as uint64 so offsets ≥ 2^63 cannot slip past the range
		// check by going negative in a signed conversion.
		if off < 5 || length == 0 || off > uint64(dataEnd) || length > uint64(dataEnd)-off {
			return nil, fmt.Errorf("fixedpsnr: index entry %d (%q): range [%d,+%d) outside archive data [5,%d)",
				i, name, off, length, dataEnd)
		}
		entries = append(entries, archiveEntry{name: name, off: int64(off), length: int64(length)})
		b = rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("fixedpsnr: %d trailing bytes after archive index", len(b))
	}
	return entries, nil
}

package fixedpsnr

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/parallel"
)

// ArchiveWriter builds an archive incrementally against any io.Writer, so
// a multi-gigabyte snapshot compresses field-by-field without ever
// materializing the whole archive (or the whole field set) in memory.
// Entries stream out as they are written; the name→offset index is
// buffered (a few dozen bytes per field) and flushed by Close as the v2
// tail index.
//
//	aw, _ := fixedpsnr.NewArchiveWriter(file)
//	for _, path := range paths {
//		f, _ := fieldio.ReadFile(path) // one field in memory at a time
//		aw.WriteField(f, opt)
//	}
//	aw.Close()
type ArchiveWriter struct {
	w        io.Writer
	off      int64
	entries  []archiveEntry
	names    map[string]struct{}
	closed   bool
	closeErr error
}

// NewArchiveWriter starts a v2 archive on w by writing the archive
// preamble.
func NewArchiveWriter(w io.Writer) (*ArchiveWriter, error) {
	head := append(append([]byte{}, archiveMagic[:]...), archiveV2)
	if _, err := w.Write(head); err != nil {
		return nil, fmt.Errorf("fixedpsnr: archive preamble: %w", err)
	}
	return &ArchiveWriter{w: w, off: int64(len(head)), names: make(map[string]struct{})}, nil
}

// Count reports the number of entries written so far.
func (aw *ArchiveWriter) Count() int { return len(aw.entries) }

// WriteField compresses one field under opt and appends the stream to the
// archive. It is the one-shot form; WriteFieldEncoder adds cancellation
// and buffer reuse for multi-field snapshots.
func (aw *ArchiveWriter) WriteField(f *Field, opt Options) (*Result, error) {
	blob, res, err := Compress(f, opt)
	if err != nil {
		return nil, err
	}
	if err := aw.writeStreamNamed(f.Name, blob); err != nil {
		return nil, err
	}
	return res, nil
}

// WriteFieldEncoder compresses one field with the session encoder and
// appends the stream to the archive, so a snapshot's fields ride one
// Encoder: scratch buffers are reused field to field and a cancelled ctx
// aborts the in-flight compression with ctx.Err(). The archive itself is
// untouched by a failed call and can keep accepting fields.
func (aw *ArchiveWriter) WriteFieldEncoder(ctx context.Context, enc *Encoder, f *Field) (*Result, error) {
	blob, res, err := enc.Encode(ctx, f)
	if err != nil {
		return nil, err
	}
	if err := aw.writeStreamNamed(f.Name, blob); err != nil {
		return nil, err
	}
	return res, nil
}

// WriteStream appends an already-compressed stream (as produced by
// Compress) to the archive, indexing it under the field name recorded in
// its header.
func (aw *ArchiveWriter) WriteStream(blob []byte) error {
	h, err := codec.ParseHeader(blob)
	if err != nil {
		return fmt.Errorf("fixedpsnr: archive entry: %w", err)
	}
	return aw.writeStreamNamed(h.Name, blob)
}

// WriteStreamNamed appends an already-compressed stream under an
// explicit index name, regardless of the name recorded in its header —
// the primitive an archive-rewriting catalog uses to carry entries from
// one archive generation to the next without re-parsing them.
func (aw *ArchiveWriter) WriteStreamNamed(name string, blob []byte) error {
	return aw.writeStreamNamed(name, blob)
}

// writeStreamNamed appends raw stream bytes under an explicit index name.
// Duplicate names are rejected up front: the v2 tail index is a
// name→offset map, so a second entry under the same name would silently
// shadow the first for every index-based reader.
func (aw *ArchiveWriter) writeStreamNamed(name string, blob []byte) error {
	if aw.closed {
		return fmt.Errorf("fixedpsnr: archive writer is closed")
	}
	if len(aw.entries) >= maxArchiveEntries {
		return fmt.Errorf("fixedpsnr: archive full (%d entries)", len(aw.entries))
	}
	if _, dup := aw.names[name]; dup {
		return fmt.Errorf("fixedpsnr: archive already has a field named %q", name)
	}
	if _, err := aw.w.Write(blob); err != nil {
		return fmt.Errorf("fixedpsnr: archive entry %q: %w", name, err)
	}
	if aw.names == nil {
		aw.names = make(map[string]struct{})
	}
	aw.names[name] = struct{}{}
	aw.entries = append(aw.entries, archiveEntry{name: name, off: aw.off, length: int64(len(blob))})
	aw.off += int64(len(blob))
	return nil
}

// Close writes the tail index and footer. The writer is unusable
// afterwards; Close does not close the underlying io.Writer. A failed
// Close is sticky: repeated calls keep returning the original error.
func (aw *ArchiveWriter) Close() error {
	if aw.closed {
		return aw.closeErr
	}
	aw.closed = true
	idx := make([]byte, 0, 16+32*len(aw.entries))
	idx = append(idx, archiveIndexMagic[:]...)
	idx = binary.AppendUvarint(idx, uint64(len(aw.entries)))
	for _, e := range aw.entries {
		idx = binary.AppendUvarint(idx, uint64(len(e.name)))
		idx = append(idx, e.name...)
		idx = binary.AppendUvarint(idx, uint64(e.off))
		idx = binary.AppendUvarint(idx, uint64(e.length))
	}
	var footer [archiveFooterLen]byte
	binary.LittleEndian.PutUint64(footer[:8], uint64(aw.off))
	copy(footer[8:], archiveFooterMagic[:])
	if _, err := aw.w.Write(append(idx, footer[:]...)); err != nil {
		aw.closeErr = fmt.Errorf("fixedpsnr: archive index: %w", err)
	}
	return aw.closeErr
}

// ArchiveReader reads an archive through an io.ReaderAt without loading
// it wholesale: opening a v2 archive reads only the preamble, footer, and
// tail index, and each extraction reads only that entry's bytes. Version
// 1 archives (no index) are scanned once at open.
//
// Every method is safe for any number of concurrent readers after
// OpenArchive returns — the guarantee a long-running server relies on
// when it fans requests for the same archive across goroutines. The
// pieces that make it hold: the underlying io.ReaderAt is only touched
// through ReadAt (stateless by contract; *os.File and *bytes.Reader both
// qualify), parsed entry headers are cached behind an atomic pointer and
// treated as immutable from then on, and all decode transients come from
// the sync.Pool-backed scratch, so no extraction ever shares a mutable
// buffer with another. Close is the one exception: it must not race an
// in-flight extraction on a file-backed reader (the read would hit a
// closed fd) — owners that evict readers while requests are in flight
// must drain them first, as the serving layer's catalog does.
type ArchiveReader struct {
	r       io.ReaderAt
	size    int64
	version uint8
	entries []archiveEntry
	closer  io.Closer
	// closeOnce makes Close idempotent: the catalog layer may evict an
	// archive from several paths, and only the first close counts.
	closeOnce sync.Once
	closeErr  error
	// data is set when the archive is already an in-memory blob; reads
	// then slice it directly instead of copying through ReadAt.
	data []byte
	// hdrs caches parsed entry headers, one slot per entry, so repeated
	// region reads of one field parse its chunk table once instead of
	// per request. Cached headers are shared across callers and must be
	// treated as read-only.
	hdrs []atomic.Pointer[codec.Header]
	// scratch feeds the per-chunk decode transients of every extraction;
	// sync.Pool-backed, so concurrent extracts share it safely.
	scratch *codec.Scratch
}

// OpenArchive opens an archive of the given total size. The reader keeps
// r and reads entries on demand; it never loads the whole v2 archive.
func OpenArchive(r io.ReaderAt, size int64) (*ArchiveReader, error) {
	return openArchive(&ArchiveReader{r: r, size: size})
}

// openArchiveBytes opens an in-memory archive blob zero-copy: entry
// reads alias data rather than duplicating it.
func openArchiveBytes(data []byte) (*ArchiveReader, error) {
	return openArchive(&ArchiveReader{
		r:    bytes.NewReader(data),
		size: int64(len(data)),
		data: data,
	})
}

func openArchive(ar *ArchiveReader) (*ArchiveReader, error) {
	ar.scratch = codec.NewScratch()
	var head [5]byte
	if ar.size < int64(len(head)) {
		return nil, fmt.Errorf("fixedpsnr: archive too short")
	}
	if _, err := ar.r.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("fixedpsnr: archive preamble: %w", err)
	}
	if [4]byte(head[:4]) != archiveMagic {
		return nil, fmt.Errorf("fixedpsnr: bad archive magic %q", head[:4])
	}
	ar.version = head[4]
	switch head[4] {
	case archiveV1:
		if err := ar.openV1(); err != nil {
			return nil, err
		}
	case archiveV2:
		if err := ar.openV2(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("fixedpsnr: unsupported archive version %d", head[4])
	}
	ar.hdrs = make([]atomic.Pointer[codec.Header], len(ar.entries))
	return ar, nil
}

// readRange returns n bytes at off, slicing the backing blob when one is
// available. Callers must not modify the returned bytes.
func (ar *ArchiveReader) readRange(off, n int64) ([]byte, error) {
	if ar.data != nil {
		return ar.data[off : off+n : off+n], nil
	}
	buf := make([]byte, n)
	if _, err := ar.r.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// OpenArchiveFile opens an archive file; Close releases the file handle.
func OpenArchiveFile(path string) (*ArchiveReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	ar, err := OpenArchive(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	ar.closer = f
	return ar, nil
}

// openV1 scans a legacy length-prefixed archive and parses every entry
// header to recover the index that v1 never stored.
func (ar *ArchiveReader) openV1() error {
	data := ar.data
	if data == nil {
		data = make([]byte, ar.size)
		if _, err := ar.r.ReadAt(data, 0); err != nil {
			return fmt.Errorf("fixedpsnr: reading v1 archive: %w", err)
		}
		// The whole v1 archive is resident anyway; let entry reads
		// slice it instead of re-reading through the ReaderAt.
		ar.data = data
	}
	streams, err := archiveEntriesV1(data)
	if err != nil {
		return err
	}
	ar.entries = make([]archiveEntry, len(streams))
	for i, s := range streams {
		h, err := codec.ParseHeader(s.blob)
		if err != nil {
			return fmt.Errorf("fixedpsnr: entry %d: %w", i, err)
		}
		ar.entries[i] = archiveEntry{name: h.Name, off: s.off, length: int64(len(s.blob))}
	}
	return nil
}

// openV2 loads the tail index.
func (ar *ArchiveReader) openV2() error {
	if ar.size < 5+int64(len(archiveIndexMagic))+1+archiveFooterLen {
		return fmt.Errorf("fixedpsnr: v2 archive too short for index")
	}
	var footer [archiveFooterLen]byte
	if _, err := ar.r.ReadAt(footer[:], ar.size-archiveFooterLen); err != nil {
		return fmt.Errorf("fixedpsnr: archive footer: %w", err)
	}
	if [4]byte(footer[8:12]) != archiveFooterMagic {
		return fmt.Errorf("fixedpsnr: missing archive footer magic (truncated archive?)")
	}
	idxOff := int64(binary.LittleEndian.Uint64(footer[:8]))
	idxEnd := ar.size - archiveFooterLen
	if idxOff < 5 || idxOff > idxEnd-int64(len(archiveIndexMagic)) {
		return fmt.Errorf("fixedpsnr: archive index offset %d outside [5,%d)", idxOff, idxEnd)
	}
	idx := make([]byte, idxEnd-idxOff)
	if _, err := ar.r.ReadAt(idx, idxOff); err != nil {
		return fmt.Errorf("fixedpsnr: archive index: %w", err)
	}
	entries, err := parseArchiveIndex(idx, idxOff)
	if err != nil {
		return err
	}
	ar.entries = entries
	return nil
}

// Len reports the number of entries.
func (ar *ArchiveReader) Len() int { return len(ar.entries) }

// Version reports the on-disk archive format version (1 or 2).
func (ar *ArchiveReader) Version() int { return int(ar.version) }

// Names lists the entry names in archive order.
func (ar *ArchiveReader) Names() []string {
	out := make([]string, len(ar.entries))
	for i, e := range ar.entries {
		out[i] = e.name
	}
	return out
}

// Stream returns the raw compressed stream of entry i. When the archive
// was opened from an in-memory blob the result aliases that blob; treat
// it as read-only.
func (ar *ArchiveReader) Stream(i int) ([]byte, error) {
	if i < 0 || i >= len(ar.entries) {
		return nil, fmt.Errorf("fixedpsnr: archive entry %d out of range [0,%d)", i, len(ar.entries))
	}
	e := ar.entries[i]
	buf, err := ar.readRange(e.off, e.length)
	if err != nil {
		return nil, fmt.Errorf("fixedpsnr: entry %d (%q): %w", i, e.name, err)
	}
	return buf, nil
}

// infoPrefixLen bounds the bytes Info reads per entry: far more than any
// realistic header (name + dims + chunk table), far less than a payload.
const infoPrefixLen = 64 << 10

// Info parses the stream header of entry i without decompressing — or,
// on a file-backed reader, even reading — its payload. The parsed header
// is cached for the life of the reader and shared by every caller: treat
// it as read-only.
func (ar *ArchiveReader) Info(i int) (*StreamInfo, error) {
	if i < 0 || i >= len(ar.entries) {
		return nil, fmt.Errorf("fixedpsnr: archive entry %d out of range [0,%d)", i, len(ar.entries))
	}
	if h := ar.hdrs[i].Load(); h != nil {
		return h, nil
	}
	h, err := ar.parseInfo(i)
	if err != nil {
		return nil, err
	}
	// A concurrent first Info may have raced us here; keep whichever
	// header landed first so every caller shares one instance.
	if !ar.hdrs[i].CompareAndSwap(nil, h) {
		h = ar.hdrs[i].Load()
	}
	return h, nil
}

// parseInfo reads and parses entry i's header prefix (the slow path
// behind Info's cache).
func (ar *ArchiveReader) parseInfo(i int) (*StreamInfo, error) {
	e := ar.entries[i]
	n := e.length
	if n > infoPrefixLen {
		n = infoPrefixLen
	}
	buf, err := ar.readRange(e.off, n)
	if err != nil {
		return nil, fmt.Errorf("fixedpsnr: entry %d (%q): %w", i, e.name, err)
	}
	h, err := codec.ParseHeaderPrefix(buf)
	if err != nil && n < e.length {
		// Pathologically large header (huge name or chunk table): fall
		// back to the whole entry.
		if buf, err = ar.readRange(e.off, e.length); err != nil {
			return nil, fmt.Errorf("fixedpsnr: entry %d (%q): %w", i, e.name, err)
		}
		h, err = codec.ParseHeaderPrefix(buf)
	}
	if err != nil {
		return nil, fmt.Errorf("fixedpsnr: entry %d: %w", i, err)
	}
	return h, nil
}

// ExtractAt decompresses entry i: ExtractRegionAt over the whole field,
// so it reads only the cached header and the chunk payloads. The header
// it returns is the one Info caches: treat it as read-only.
func (ar *ArchiveReader) ExtractAt(i int) (*Field, *StreamInfo, error) {
	h, err := ar.Info(i)
	if err != nil {
		return nil, nil, err
	}
	return ar.ExtractRegionAt(i, make([]int, len(h.Dims)), h.Dims)
}

// Extract decompresses the named entry. On a v2 archive only the index
// and this entry are read and parsed.
func (ar *ArchiveReader) Extract(name string) (*Field, *StreamInfo, error) {
	for i, e := range ar.entries {
		if e.name == name {
			return ar.ExtractAt(i)
		}
	}
	return nil, nil, fmt.Errorf("fixedpsnr: archive has no field %q", name)
}

// Index returns the entry index of the named field, or ok=false when the
// archive has no such entry.
func (ar *ArchiveReader) Index(name string) (i int, ok bool) {
	for i, e := range ar.entries {
		if e.name == name {
			return i, true
		}
	}
	return -1, false
}

// ChunkPayload reads the compressed payload of chunk ci of entry i — the
// byte-range primitive a decoded-chunk cache fills its misses from. Only
// that chunk's bytes are read; on an in-memory archive the result aliases
// the blob and must be treated as read-only.
func (ar *ArchiveReader) ChunkPayload(i, ci int) ([]byte, error) {
	h, err := ar.Info(i)
	if err != nil {
		return nil, err
	}
	if ci < 0 || ci >= len(h.Chunks) {
		return nil, fmt.Errorf("fixedpsnr: entry %d chunk %d out of range [0,%d)", i, ci, len(h.Chunks))
	}
	e := ar.entries[i]
	ck := h.Chunks[ci]
	lo := int64(h.PayloadOffset() + ck.Off)
	if lo+int64(ck.Len) > e.length {
		return nil, fmt.Errorf("fixedpsnr: entry %d chunk %d payload [%d,+%d) outside entry of %d bytes", i, ci, lo, ck.Len, e.length)
	}
	return ar.readRange(e.off+lo, int64(ck.Len))
}

// ExtractRegion decompresses only the sub-block starting at off with
// extents ext of the named entry. The access is chunk-granular end to
// end: the tail index locates the entry, the entry's header prefix
// supplies the chunk table, and only the payload byte ranges of the
// chunks the region intersects are read from the underlying ReaderAt —
// on a file-backed archive a small region of a huge field costs a few
// reads, not an entry scan.
func (ar *ArchiveReader) ExtractRegion(name string, off, ext []int) (*Field, *StreamInfo, error) {
	return ar.ExtractRegionContext(context.Background(), name, off, ext)
}

// ExtractRegionContext is ExtractRegion under a cancellable context: a
// cancelled ctx aborts the decode within one chunk of work per worker and
// returns ctx.Err() — the per-request form a server uses.
func (ar *ArchiveReader) ExtractRegionContext(ctx context.Context, name string, off, ext []int) (*Field, *StreamInfo, error) {
	i, ok := ar.Index(name)
	if !ok {
		return nil, nil, fmt.Errorf("fixedpsnr: archive has no field %q", name)
	}
	return ar.ExtractRegionAtContext(ctx, i, off, ext)
}

// ExtractRegionAt is ExtractRegion by entry index.
func (ar *ArchiveReader) ExtractRegionAt(i int, off, ext []int) (*Field, *StreamInfo, error) {
	return ar.ExtractRegionAtContext(context.Background(), i, off, ext)
}

// ExtractRegionAtContext is ExtractRegionContext by entry index.
func (ar *ArchiveReader) ExtractRegionAtContext(ctx context.Context, i int, off, ext []int) (*Field, *StreamInfo, error) {
	h, err := ar.Info(i)
	if err != nil {
		return nil, nil, err
	}
	f, err := codec.DecompressRegionFrom(ctx, h, func(ci int) ([]byte, error) {
		return ar.ChunkPayload(i, ci)
	}, off, ext, ar.scratch, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("fixedpsnr: entry %d (%q): %w", i, ar.entries[i].name, err)
	}
	return f, h, nil
}

// DecompressAll reconstructs every entry, in order, parallelizing across
// entries. An entry's error comes back as ExtractAt returns it, which
// already names the entry.
func (ar *ArchiveReader) DecompressAll() ([]*Field, error) {
	fields := make([]*Field, len(ar.entries))
	err := parallel.ForEach(len(ar.entries), 0, func(i int) error {
		f, _, err := ar.ExtractAt(i)
		fields[i] = f
		return err
	})
	if err != nil {
		return nil, err
	}
	return fields, nil
}

// Close releases the underlying file when the reader was opened with
// OpenArchiveFile; for byte-backed readers it is a no-op. Close is
// idempotent — a catalog can evict the same reader from several paths
// and only the first close touches the file — but it must not run
// concurrently with extractions on a file-backed reader (drain them
// first; see the type comment).
func (ar *ArchiveReader) Close() error {
	ar.closeOnce.Do(func() {
		if ar.closer != nil {
			ar.closeErr = ar.closer.Close()
		}
	})
	return ar.closeErr
}

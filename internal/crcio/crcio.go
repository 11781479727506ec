// Package crcio is the sealed-file layer: the one place that decides how
// a persisted artefact (model file, stream checkpoint) is framed and how
// it reaches disk.
//
// Framing (Seal/Open, SealGob/OpenGob): an optional raw magic, a body,
// and a CRC-32 (IEEE) trailer over both, so truncation and bit-rot are
// detected deterministically instead of relying on whatever error shape
// a gob decoder happens to produce. The body is read through a Reader
// that implements io.ByteReader, so stacked gob decoders consume exactly
// the bytes they need and the trailer position stays well-defined.
//
// Files: Commit is the one atomic write (temp file, buffer, flush,
// fsync, close, rename) through the injectable faultio.FS seam, and
// ReadFile the matching open, buffer, read, close.
package crcio

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/faultio"
)

// ErrChecksum reports a trailer that does not match the stream's
// content: the file was corrupted (bit-rot, torn write) after it was
// sealed.
var ErrChecksum = errors.New("crcio: checksum mismatch")

// Writer hashes everything written through it.
type Writer struct {
	w   io.Writer
	sum uint32
}

// NewWriter returns a hashing writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write implements io.Writer, folding p into the running checksum.
func (cw *Writer) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.sum = crc32.Update(cw.sum, crc32.IEEETable, p[:n])
	return n, err
}

// WriteTrailer appends the current checksum as 4 big-endian bytes,
// written directly to the underlying writer (the trailer does not hash
// itself). The stream is complete after this call.
func (cw *Writer) WriteTrailer() error {
	if _, err := cw.w.Write(binary.BigEndian.AppendUint32(nil, cw.sum)); err != nil {
		return fmt.Errorf("crcio: writing trailer: %w", err)
	}
	return nil
}

// Reader hashes everything read through it. It implements io.ByteReader
// so gob decoders layered on top read exact message boundaries instead
// of buffering ahead into the trailer.
type Reader struct {
	r   io.Reader
	br  io.ByteReader
	sum uint32
}

// NewReader returns a hashing reader over r. If r does not implement
// io.ByteReader it is wrapped in a bufio.Reader, which reads ahead from
// r; hand NewReader the start of a stream and do not read from r
// directly afterwards.
func NewReader(r io.Reader) *Reader {
	br, ok := r.(io.ByteReader)
	if !ok {
		buf := bufio.NewReader(r)
		return &Reader{r: buf, br: buf}
	}
	return &Reader{r: r, br: br}
}

// Read implements io.Reader, folding the bytes read into the checksum.
func (cr *Reader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.sum = crc32.Update(cr.sum, crc32.IEEETable, p[:n])
	return n, err
}

// ReadByte implements io.ByteReader.
func (cr *Reader) ReadByte() (byte, error) {
	b, err := cr.br.ReadByte()
	if err != nil {
		return b, err
	}
	cr.sum = crc32.Update(cr.sum, crc32.IEEETable, []byte{b})
	return b, nil
}

// VerifyTrailer reads the 4-byte trailer and compares it against the
// checksum of every byte read before it. A missing or partial trailer
// reports an unexpected-EOF error; a present-but-wrong trailer reports
// ErrChecksum.
func (cr *Reader) VerifyTrailer() error {
	want := cr.sum
	var buf [4]byte
	if _, err := io.ReadFull(cr, buf[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("crcio: stream truncated before trailer: %w", io.ErrUnexpectedEOF)
		}
		return fmt.Errorf("crcio: reading trailer: %w", err)
	}
	if got := binary.BigEndian.Uint32(buf[:]); got != want {
		return fmt.Errorf("%w: stream %08x, trailer %08x", ErrChecksum, want, got)
	}
	return nil
}

// ErrCorrupt is the one cause every refused sealed stream wraps: wrong
// magic, undecodable payload, truncation, or (with ErrChecksum) bit-rot.
var ErrCorrupt = errors.New("crcio: corrupt sealed stream")

// Seal writes one sealed stream to w: the raw magic (may be empty),
// whatever body writes, and the CRC-32 trailer over both.
func Seal(w io.Writer, magic string, body func(io.Writer) error) error {
	cw := NewWriter(w)
	if _, err := io.WriteString(cw, magic); err != nil {
		return fmt.Errorf("crcio: writing magic: %w", err)
	}
	if err := body(cw); err != nil {
		return err
	}
	return cw.WriteTrailer()
}

// Open reads one sealed stream from r: it checks the raw magic, hands
// body a reader that stops exactly where body's decoders stop, and
// verifies the trailer unless body reports the stream predates trailers.
// body's errors pass through; magic and trailer failures wrap ErrCorrupt.
func Open(r io.Reader, magic string, body func(io.Reader) (trailer bool, err error)) error {
	cr := NewReader(r)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(cr, got); err != nil {
		return fmt.Errorf("%w: reading magic: %w", ErrCorrupt, err)
	}
	if string(got) != magic {
		return fmt.Errorf("%w: magic %q, want %q", ErrCorrupt, got, magic)
	}
	trailer, err := body(cr)
	if err != nil || !trailer {
		return err
	}
	if err := cr.VerifyTrailer(); err != nil {
		return fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return nil
}

// SealGob is Seal with a body of exactly one gob value.
func SealGob(w io.Writer, magic string, payload any) error {
	return Seal(w, magic, func(w io.Writer) error { return gob.NewEncoder(w).Encode(payload) })
}

// OpenGob reads a SealGob stream into payload (a pointer). Every
// failure wraps ErrCorrupt; payload is meaningful only on a nil return.
func OpenGob(r io.Reader, magic string, payload any) error {
	return Open(r, magic, func(r io.Reader) (bool, error) {
		if err := gob.NewDecoder(r).Decode(payload); err != nil {
			return false, fmt.Errorf("%w: decoding payload: %w", ErrCorrupt, err)
		}
		return true, nil
	})
}

// bufSize is the buffer between a sealed stream and its file.
const bufSize = 1 << 20

// Commit atomically replaces path with what write produces: a temp file
// (tempPattern, os.CreateTemp semantics) in path's directory is written
// through a buffer, flushed, fsynced, closed and renamed over path. On any
// failure the temp file is removed and path is untouched. It returns the size.
func Commit(fs faultio.FS, path, tempPattern string, write func(io.Writer) error) (int64, error) {
	f, err := fs.CreateTemp(filepath.Dir(path), tempPattern)
	if err != nil {
		return 0, fmt.Errorf("crcio: creating temp file for %s: %w", path, err)
	}
	tmp := f.Name()
	cw := &countingWriter{w: f}
	bw := bufio.NewWriterSize(cw, bufSize)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		_ = fs.Remove(tmp) // best effort; the write error is the one worth reporting
		return 0, fmt.Errorf("crcio: committing %s via %s: %w", path, tmp, err)
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// ReadFile opens path, hands read a buffered reader over it, and
// closes it. A missing file is reported as-is (os.IsNotExist-compatible)
// so callers can treat it as a cold start.
func ReadFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := read(bufio.NewReaderSize(f, bufSize))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return v, err
}

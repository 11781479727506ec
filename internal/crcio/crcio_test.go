package crcio

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/faultio"
)

func sealed(t *testing.T, payload string) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := Seal(&buf, "", func(w io.Writer) error { _, err := io.WriteString(w, payload); return err })
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := sealed(t, "hello, stream")
	r := NewReader(bytes.NewReader(data))
	got := make([]byte, len("hello, stream"))
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyTrailer(); err != nil {
		t.Fatalf("verify failed on intact stream: %v", err)
	}
}

func TestEveryBitFlipDetected(t *testing.T) {
	data := sealed(t, "payload under test")
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(data)
			flipped[i] ^= 1 << bit
			r := NewReader(bytes.NewReader(flipped))
			buf := make([]byte, len(data)-4)
			if _, err := io.ReadFull(r, buf); err != nil {
				t.Fatalf("payload read failed: %v", err)
			}
			if err := r.VerifyTrailer(); !errors.Is(err, ErrChecksum) {
				t.Fatalf("flip at byte %d bit %d: err = %v, want ErrChecksum", i, bit, err)
			}
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	data := sealed(t, "payload under test")
	// Cut inside the trailer: the payload reads fine, the trailer is
	// short.
	cut := data[:len(data)-2]
	r := NewReader(bytes.NewReader(cut))
	buf := make([]byte, len(data)-4)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyTrailer(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated trailer: err = %v, want unexpected EOF", err)
	}
}

func TestReadErrorPropagates(t *testing.T) {
	data := sealed(t, "payload under test")
	r := NewReader(faultio.FailReader(bytes.NewReader(data), int64(len(data)-3)))
	buf := make([]byte, len(data)-4)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyTrailer(); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("injected read error lost: %v", err)
	}
}

// TestGobBoundaries is the property the model and checkpoint formats
// rely on: stacked gob decoders over one Reader consume exactly their
// own messages, leaving the trailer in place and the checksum
// well-defined.
func TestGobBoundaries(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := gob.NewEncoder(w).Encode("first"); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(w).Encode([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTrailer(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	var s string
	if err := gob.NewDecoder(r).Decode(&s); err != nil || s != "first" {
		t.Fatalf("first part: %q err=%v", s, err)
	}
	var ints []int
	if err := gob.NewDecoder(r).Decode(&ints); err != nil || len(ints) != 3 {
		t.Fatalf("second part: %v err=%v", ints, err)
	}
	if err := r.VerifyTrailer(); err != nil {
		t.Fatalf("trailer after gob parts: %v", err)
	}
}

// TestNonByteReaderSource checks the bufio fallback path for readers
// that cannot hand out single bytes.
func TestNonByteReaderSource(t *testing.T) {
	data := sealed(t, "abc")
	r := NewReader(struct{ io.Reader }{strings.NewReader(string(data))})
	buf := make([]byte, 3)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyTrailer(); err != nil {
		t.Fatal(err)
	}
}

// The sealed-file layouts in miniature: the stream checkpoint is a raw
// magic plus one gob payload ("shard" is the same form under a second
// magic, the retired per-shard checkpoint's); the model has no raw magic,
// stacks gob sections, and only its version 1 may lack the trailer.
type ckptPayload struct {
	Version int
	Days    []int
}

var layouts = []struct {
	name string
	seal func(w io.Writer) error
	open func(r io.Reader) (sealed bool, err error)
}{
	{"stream", func(w io.Writer) error { return SealGob(w, "maldomain-ckpt\n", ckptPayload{1, []int{3, 4}}) },
		func(r io.Reader) (bool, error) { return true, OpenGob(r, "maldomain-ckpt\n", new(ckptPayload)) }},
	{"shard", func(w io.Writer) error { return SealGob(w, "maldomain-shard\n", ckptPayload{1, []int{5}}) },
		func(r io.Reader) (bool, error) { return true, OpenGob(r, "maldomain-shard\n", new(ckptPayload)) }},
	{"model", func(w io.Writer) error {
		return Seal(w, "", func(w io.Writer) error {
			if err := gob.NewEncoder(w).Encode(2); err != nil {
				return err
			}
			return gob.NewEncoder(w).Encode([]float64{0.25, -1.5})
		})
	}, func(r io.Reader) (sealed bool, err error) {
		err = Open(r, "", func(r io.Reader) (bool, error) {
			var version int
			var vec []float64
			if err := gob.NewDecoder(r).Decode(&version); err != nil || version < 1 || version > 2 {
				return false, fmt.Errorf("%w: version %d: %v", ErrCorrupt, version, err)
			}
			if err := gob.NewDecoder(r).Decode(&vec); err != nil {
				return false, fmt.Errorf("%w: vectors: %w", ErrCorrupt, err)
			}
			sealed = version >= 2
			return sealed, nil
		})
		return sealed, err
	}},
}

func sealedLayout(t testing.TB, i int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := layouts[i].seal(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSealedLayouts: each layout opens its own stream, no layout opens
// another's, and a trailer mismatch is both the typed cause and the
// specific one.
func TestSealedLayouts(t *testing.T) {
	for i, l := range layouts {
		data := sealedLayout(t, i)
		for j, other := range layouts {
			_, err := other.open(bytes.NewReader(data))
			if (i == j) != (err == nil) || (err != nil && !errors.Is(err, ErrCorrupt)) {
				t.Errorf("%s stream through %s opener: err = %v", l.name, other.name, err)
			}
		}
		data[len(data)-1] ^= 1
		if _, err := l.open(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) || !errors.Is(err, ErrChecksum) {
			t.Errorf("%s: flipped trailer: err = %v, want ErrCorrupt and ErrChecksum", l.name, err)
		}
	}
}

// FuzzOpen is the one byte-level target for every sealed file: whatever
// the input, each layout's opener returns a payload or a typed error,
// never panics; and a sealed payload is only ever returned for bytes
// that verify, so flipping any bit of an accepted stream must turn it
// into a refusal. The semantic checks callers run behind the envelope
// keep their own target (stream.FuzzRestore).
func FuzzOpen(f *testing.F) {
	for i := range layouts {
		valid := sealedLayout(f, i)
		f.Add(valid, uint(0))
		f.Add(valid, uint(len(valid)*8-1))
		f.Add(valid[:len(valid)/2], uint(7))
		f.Add(valid[:len(valid)-3], uint(7))
	}
	f.Add([]byte{}, uint(0))
	f.Fuzz(func(t *testing.T, data []byte, bit uint) {
		for _, l := range layouts {
			r := bytes.NewReader(data)
			sealed, err := l.open(r)
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: untyped refusal %v", l.name, err)
			}
			if err != nil || !sealed {
				continue
			}
			// The accepted stream is the prefix the opener consumed.
			stream := bytes.Clone(data[:len(data)-r.Len()])
			bit %= uint(len(stream) * 8)
			stream[bit/8] ^= 1 << (bit % 8)
			if _, err := l.open(bytes.NewReader(stream)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: bit %d flipped: err = %v, want ErrCorrupt", l.name, bit, err)
			}
		}
	})
}

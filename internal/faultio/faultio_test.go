package faultio

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFailWriter(t *testing.T) {
	var buf bytes.Buffer
	w := FailWriter(&buf, 5)
	if n, err := w.Write([]byte("abc")); n != 3 || err != nil {
		t.Fatalf("within budget: n=%d err=%v", n, err)
	}
	// The crossing call fails cleanly: nothing of it is written.
	if n, err := w.Write([]byte("defg")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("crossing call: n=%d err=%v", n, err)
	}
	if n, err := w.Write([]byte("h")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("post-fault call: n=%d err=%v", n, err)
	}
	if got := buf.String(); got != "abc" {
		t.Fatalf("underlying got %q, want %q", got, "abc")
	}
}

func TestTornWriter(t *testing.T) {
	var buf bytes.Buffer
	w := TornWriter(&buf, 5)
	if n, err := w.Write([]byte("abc")); n != 3 || err != nil {
		t.Fatalf("within budget: n=%d err=%v", n, err)
	}
	// The crossing call writes the remaining budget, then fails.
	if n, err := w.Write([]byte("defg")); n != 2 || !errors.Is(err, ErrInjected) {
		t.Fatalf("crossing call: n=%d err=%v", n, err)
	}
	if got := buf.String(); got != "abcde" {
		t.Fatalf("underlying got %q, want %q", got, "abcde")
	}
	if n, err := w.Write([]byte("h")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("post-fault call: n=%d err=%v", n, err)
	}
}

func TestShortWriter(t *testing.T) {
	var buf bytes.Buffer
	w := ShortWriter(&buf, 5)
	// The crossing call lies: partial write, nil error.
	if n, err := w.Write([]byte("abcdefg")); n != 5 || err != nil {
		t.Fatalf("crossing call: n=%d err=%v", n, err)
	}
	// After the lie, the writer hard-fails so callers can't spin.
	if n, err := w.Write([]byte("h")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("post-budget call: n=%d err=%v", n, err)
	}
	if got := buf.String(); got != "abcde" {
		t.Fatalf("underlying got %q, want %q", got, "abcde")
	}
}

func TestFailReader(t *testing.T) {
	r := FailReader(strings.NewReader("abcdefgh"), 5)
	got, err := io.ReadAll(r)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if string(got) != "abcde" {
		t.Fatalf("read %q before fault, want %q", got, "abcde")
	}

	// Underlying data shorter than the injection point: plain EOF.
	r = FailReader(strings.NewReader("ab"), 5)
	got, err = io.ReadAll(r)
	if err != nil || string(got) != "ab" {
		t.Fatalf("short underlying: got %q err=%v", got, err)
	}
}

// TestShortWriteDetectedByBufio documents the contract the checkpoint
// writer relies on: a lying short writer is surfaced as
// io.ErrShortWrite by bufio at flush time.
func TestShortWriteDetectedByBufio(t *testing.T) {
	var sink bytes.Buffer
	sw := ShortWriter(&sink, 3)
	bw := bufio.NewWriterSize(sw, 16)
	if _, err := bw.Write([]byte("xxxxxxxx")); err != nil {
		t.Fatalf("buffered write failed early: %v", err)
	}
	if err := bw.Flush(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("flush err = %v, want io.ErrShortWrite", err)
	}
}

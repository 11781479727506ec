package pipeline

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dnswire"
)

// The text log format is one tab-separated line per joined observation:
//
//	RFC3339Nano  txnid  client  qname  qtype  rcode  ttl  ip1,ip2,...
//
// An empty answer list is written as "-". This is the on-disk format of
// cmd/dnsgen and the input of cmd/maldetect.

// WriteLog serializes inputs to w in the text log format.
func WriteLog(w io.Writer, inputs []Input) error {
	bw := bufio.NewWriter(w)
	for i := range inputs {
		if err := WriteLogLine(bw, inputs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// lineBufs holds WriteLogLine's line buffers between calls.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteLogLine writes a single observation line, in one Write.
func WriteLogLine(w io.Writer, in Input) error {
	buf := lineBufs.Get().(*[]byte)
	*buf = appendLogLine((*buf)[:0], in)
	_, err := w.Write(*buf)
	lineBufs.Put(buf)
	return err
}

// appendLogLine appends in's line, newline included, to dst.
func appendLogLine(dst []byte, in Input) []byte {
	dst = in.Time.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, '\t')
	dst = strconv.AppendUint(dst, uint64(in.TxnID), 10)
	dst = append(dst, '\t')
	dst = append(dst, in.ClientIP...)
	dst = append(dst, '\t')
	dst = append(dst, in.QName...)
	dst = append(dst, '\t')
	dst = append(dst, in.QType.String()...)
	dst = append(dst, '\t')
	dst = strconv.AppendUint(dst, uint64(in.RCode), 10)
	dst = append(dst, '\t')
	dst = strconv.AppendUint(dst, uint64(in.TTL), 10)
	dst = append(dst, '\t')
	if len(in.Answers) == 0 {
		dst = append(dst, '-')
	}
	for i, ip := range in.Answers {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, ip...)
	}
	return append(dst, '\n')
}

const (
	// readBlock is how much of the log ReadLog reads, and copies into one
	// string, at a time.
	readBlock = 256 << 10
	// maxLine bounds a line, its newline included. A longer one is an
	// error, not a reason to buffer without limit.
	maxLine = 1 << 20
	// slabAnswers is how many answers share one allocation.
	slabAnswers = 4096
)

// ReadLog parses the text log format from r, calling emit for every
// observation. It fails fast on the first malformed line, reporting its
// line number; a line of more than 1 MiB, counting a newline whether or
// not the last line has one, is malformed.
// Blank lines and lines starting with '#' are skipped, a line may end in
// CRLF, and the last line needs no newline. After a read error the lines
// already complete are emitted, the unfinished one is not, and the error
// is returned.
//
// ReadLog reads r in blocks of 256 KiB and does its own buffering: hand
// it the file, not a bufio.Reader around it, which would only copy every
// byte a second time.
//
// The strings of an emitted Input are substrings of one string per
// block, and its Answers is a slice, clipped to its length, of an array
// shared with the few thousand answers around it. A sink that keeps an
// Input, or any string of one, therefore keeps that whole block
// reachable, and one that keeps an Answers slice the blocks of the lines
// around it too; a sink that keeps a few short strings out of many lines
// should strings.Clone them, as Processor.Consume does.
func ReadLog(r io.Reader, emit func(Input)) error {
	buf := make([]byte, readBlock)
	slab := answerSlab{chunk: slabAnswers}
	lineNo := 0
	for held := 0; ; {
		// buf[:held] is the start of a line whose end is not read yet.
		n, readErr := fill(r, buf[held:])
		data := buf[:held+n]
		atEOF := errors.Is(readErr, io.EOF)
		end := len(data)
		if !atEOF {
			end = bytes.LastIndexByte(data, '\n') + 1
		}
		block := string(data[:end])
		for block != "" {
			var line string
			line, block, _ = strings.Cut(block, "\n")
			lineNo++
			line = strings.TrimSuffix(line, "\r")
			if line == "" || line[0] == '#' {
				continue
			}
			in, err := parseLogLine(line, &slab)
			if err != nil {
				return fmt.Errorf("pipeline: line %d: %w", lineNo, err)
			}
			emit(in)
		}
		if atEOF {
			return nil
		}
		if readErr != nil {
			return fmt.Errorf("pipeline: reading log: %w", readErr)
		}
		held = copy(buf, data[end:])
		if held == len(buf) {
			if held >= maxLine {
				return fmt.Errorf("pipeline: line %d: longer than %d bytes", lineNo+1, maxLine)
			}
			buf = append(buf, make([]byte, len(buf))...)
		}
	}
}

// fill reads from r until buf is full or r fails, and returns r's error
// as it came. io.ReadFull would turn an io.EOF after some bytes into
// io.ErrUnexpectedEOF, which is also what a truncated compressed stream
// reports of itself; this way io.EOF alone means the log ended.
func fill(r io.Reader, buf []byte) (n int, err error) {
	for empty := 0; n < len(buf) && err == nil; {
		var m int
		m, err = r.Read(buf[n:])
		n += m
		if m > 0 {
			empty = 0
		} else if empty++; empty >= 100 && err == nil {
			err = io.ErrNoProgress
		}
	}
	return n, err
}

// answerSlab hands out Answers slices, chunk elements to an allocation.
// A slab is never reused: the slices it handed out stay valid for as long
// as anything holds them.
type answerSlab struct {
	free  []string
	chunk int
}

// take returns a slice of n elements with no spare capacity, so that an
// append to it cannot reach its neighbour's elements.
func (s *answerSlab) take(n int) []string {
	if n > len(s.free) {
		if n > s.chunk {
			return make([]string, n)
		}
		s.free = make([]string, s.chunk)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// ParseLogLine parses one text log line. Every string in the result is a
// substring of line, so the result keeps line reachable; the only
// allocation is the Answers slice.
func ParseLogLine(line string) (Input, error) {
	return parseLogLine(line, &answerSlab{})
}

// parseLogLine is ParseLogLine with the Answers slice taken from slab.
func parseLogLine(line string, slab *answerSlab) (Input, error) {
	var fields [8]string
	rest := line
	for i := range fields[:7] {
		tab := strings.IndexByte(rest, '\t')
		if tab < 0 {
			return Input{}, fmt.Errorf("want 8 fields, got %d", i+1)
		}
		fields[i], rest = rest[:tab], rest[tab+1:]
	}
	if extra := strings.Count(rest, "\t"); extra > 0 {
		return Input{}, fmt.Errorf("want 8 fields, got %d", 8+extra)
	}
	fields[7] = rest

	t, ok := parseUTCTimestamp(fields[0])
	if !ok {
		var err error
		if t, err = time.Parse(time.RFC3339Nano, fields[0]); err != nil {
			return Input{}, fmt.Errorf("bad timestamp %q: %w", fields[0], err)
		}
	}
	txn, err := strconv.ParseUint(fields[1], 10, 16)
	if err != nil {
		return Input{}, fmt.Errorf("bad txn id %q: %w", fields[1], err)
	}
	qtype, err := dnswire.ParseType(fields[4])
	if err != nil {
		return Input{}, err
	}
	rcode, err := strconv.ParseUint(fields[5], 10, 8)
	if err != nil {
		return Input{}, fmt.Errorf("bad rcode %q: %w", fields[5], err)
	}
	ttl, err := strconv.ParseUint(fields[6], 10, 32)
	if err != nil {
		return Input{}, fmt.Errorf("bad ttl %q: %w", fields[6], err)
	}
	in := Input{
		Time:     t,
		TxnID:    uint16(txn),
		ClientIP: fields[2],
		QName:    fields[3],
		QType:    qtype,
		RCode:    dnswire.RCode(rcode),
		TTL:      uint32(ttl),
	}
	if fields[7] != "-" {
		if in.Answers, err = parseAnswers(fields[7], slab); err != nil {
			return Input{}, err
		}
	}
	return in, nil
}

// parseAnswers cuts a comma-separated answer list. An empty element is
// an error: stored as an address it would be one vertex of the IP view
// shared by every domain with such a line.
func parseAnswers(list string, slab *answerSlab) ([]string, error) {
	answers := slab.take(strings.Count(list, ",") + 1)
	rest := list
	for i := range answers {
		answers[i], rest, _ = strings.Cut(rest, ",")
		if answers[i] == "" {
			return nil, fmt.Errorf("empty answer in %q (an empty list is written \"-\")", list)
		}
	}
	return answers, nil
}

// parseUTCTimestamp parses the timestamps WriteLogLine emits,
// "2006-01-02T15:04:05[.fraction]Z" with one to nine fraction digits,
// to the Time that time.Parse(time.RFC3339Nano, s) returns. ok is false
// for any other string, valid RFC 3339 or not: the caller hands those to
// time.Parse, so what is accepted and what the error says do not change.
func parseUTCTimestamp(s string) (t time.Time, ok bool) {
	if len(s) < 20 || s[4] != '-' || s[7] != '-' || s[10] != 'T' ||
		s[13] != ':' || s[16] != ':' || s[len(s)-1] != 'Z' {
		return time.Time{}, false
	}
	year, month, day := digits(s[0:4]), digits(s[5:7]), digits(s[8:10])
	hour, minute, sec := digits(s[11:13]), digits(s[14:16]), digits(s[17:19])
	if year < 0 || month < 1 || month > 12 || day < 1 ||
		hour < 0 || hour > 23 || minute < 0 || minute > 59 || sec < 0 || sec > 59 {
		return time.Time{}, false
	}
	nsec := 0
	if frac := s[19 : len(s)-1]; frac != "" {
		if frac[0] != '.' || len(frac) < 2 || len(frac) > 10 {
			return time.Time{}, false
		}
		if nsec = digits(frac[1:]); nsec < 0 {
			return time.Time{}, false
		}
		for i := len(frac); i < 10; i++ {
			nsec *= 10
		}
	}
	t = time.Date(year, time.Month(month), day, hour, minute, sec, nsec, time.UTC)
	// Date carries a day the month lacks into the next month.
	return t, t.Day() == day
}

// digits returns the value of a short all-digit string, -1 for any other.
func digits(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return -1
		}
		n = n*10 + int(d)
	}
	return n
}

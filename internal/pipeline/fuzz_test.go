package pipeline

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/dnswire"
)

// referenceParseLogLine is the strings.Split and time.Parse parser that
// ParseLogLine replaced, kept as the oracle the split-free parser is
// compared against. It differs from the old parser in one place only: an
// empty answer is an error.
func referenceParseLogLine(line string) (Input, error) {
	fields := strings.Split(line, "\t")
	if len(fields) != 8 {
		return Input{}, fmt.Errorf("want 8 fields, got %d", len(fields))
	}
	t, err := time.Parse(time.RFC3339Nano, fields[0])
	if err != nil {
		return Input{}, fmt.Errorf("bad timestamp %q: %w", fields[0], err)
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
		in.Answers = strings.Split(fields[7], ",")
		for _, ip := range in.Answers {
			if ip == "" {
				return Input{}, fmt.Errorf("empty answer in %q (an empty list is written \"-\")", fields[7])
			}
		}
	}
	return in, nil
}

// FuzzParseLogLine drives the text-log parser with arbitrary lines.
// Invariants: ParseLogLine never panics; it accepts and rejects exactly
// what the reference does, with the same message and the same Input,
// time zone included; and an accepted line survives WriteLogLine and a
// second parse unchanged.
func FuzzParseLogLine(f *testing.F) {
	for _, s := range []string{
		"2018-03-01T00:00:00Z\t1\t10.0.0.1\twww.example.com\tA\t0\t300\t1.2.3.4,1.2.3.5",
		"2018-03-01T23:59:59.999999999Z\t65535\t10.0.0.2\tgone.example.org\tAAAA\t3\t0\t-",
		"2018-03-01T00:00:00.5Z\t0\t\t\tTYPE99\t255\t4294967295\tx",
		"2020-02-29T12:00:00.000000001Z\t1\tc\tq\tns\t0\t1\t-,-",
		"2019-02-29T12:00:00Z\t1\tc\tq\tA\t0\t1\t-",
		"2018-03-01T02:00:00+02:00\t1\tc\tq\tA\t0\t1\t-",
		"2018-03-01T00:00:00.1234567891Z\t1\tc\tq\tA\t0\t1\t-",
		"2018-03-01T00:00:60Z\t1\tc\tq\tA\t0\t1\t-",
		"2018-03-01T24:00:00Z\t1\tc\tq\tA\t0\t1\t-",
		"2018-03-01T00:00:00,5Z\t1\tc\tq\tA\t0\t1\t-",
		"2018-03-01t00:00:00z\t1\tc\tq\tA\t0\t1\t-",
		"0000-01-01T00:00:00Z\t1\tc\tq\tA\t0\t1\t-",
		"2018-03-01T00:00:00Z\t65536\tc\tq\tA\t0\t1\t-",
		"2018-03-01T00:00:00Z\t1\tc\tq\tA\t0\t60\t",
		"2018-03-01T00:00:00Z\t1\tc\tq\tA\t0\t60\t1.2.3.4,,5.6.7.8",
		"2018-03-01T00:00:00Z\t1\tc\tq\tA\t0\t60\t-\textra",
		"not a log line",
		"\t\t\t\t\t\t\t",
		"",
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, line string) {
		got, err := ParseLogLine(line)
		want, wantErr := referenceParseLogLine(line)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ParseLogLine(%q) error %v, reference %v", line, err, wantErr)
		}
		if err != nil {
			return
		}
		// DeepEqual on a Time compares wall clock, monotonic reading and
		// location pointer: stricter than Equal, and what a caller that
		// formats the time without UTC() would notice.
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseLogLine(%q) = %+v, reference %+v", line, got, want)
		}
		if y := got.Time.UTC().Year(); y < 0 || y > 9999 {
			return // RFC 3339 cannot spell the year WriteLogLine would need
		}
		var buf bytes.Buffer
		if err := WriteLogLine(&buf, got); err != nil {
			t.Fatal(err)
		}
		again, err := ParseLogLine(strings.TrimSuffix(buf.String(), "\n"))
		if err != nil {
			t.Fatalf("ParseLogLine(%q) = %+v, written as %q, which does not parse: %v", line, got, buf.String(), err)
		}
		if !again.Time.Equal(got.Time) {
			t.Fatalf("ParseLogLine(%q): time %v came back as %v", line, got.Time, again.Time)
		}
		again.Time = got.Time
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("ParseLogLine(%q) = %+v, after WriteLogLine %+v", line, got, again)
		}
	})
}

// referenceReadLog is the bufio.Scanner loop that ReadLog's block reader
// replaced, kept as its oracle: one string a line, one ParseLogLine a
// string.
func referenceReadLog(r io.Reader, emit func(Input)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		in, err := ParseLogLine(line)
		if err != nil {
			return fmt.Errorf("pipeline: line %d: %w", lineNo, err)
		}
		emit(in)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The one place the two differ by design: the block reader
			// says which line.
			return fmt.Errorf("pipeline: line %d: longer than %d bytes", lineNo+1, maxLine)
		}
		return fmt.Errorf("pipeline: reading log: %w", err)
	}
	return nil
}

// FuzzReadLog drives the block reader with logs of several blocks, built
// as head + body repeated so that a short input puts line ends, CRs and
// malformed lines at every offset of a block edge, and read through
// readers that return one byte, half the request, or the last bytes
// together with io.EOF. Invariants: ReadLog emits the Inputs the Scanner
// loop emits, field for field, each Answers clipped to its length, and
// fails where it fails with the same text and line number.
func FuzzReadLog(f *testing.F) {
	const good = "2018-03-01T00:00:00.25Z\t7\t10.0.0.1\twww.example.com\tA\t0\t300\t1.2.3.4,1.2.3.5\n"
	const nx = "2018-03-01T00:00:01Z\t8\t10.0.0.2\tgone.example.org\tAAAA\t3\t0\t-\n"
	three := func(body string) uint16 { return uint16(3*readBlock/len(body) + 1) }
	f.Add("", good+nx, three(good+nx))
	f.Add("# header\n\n", good, three(good))
	f.Add("", strings.ReplaceAll(good+nx, "\n", "\r\n"), three(good+nx))
	f.Add(strings.Repeat("#", 4093)+"\n", good+"\n# c\n"+nx+"\r\n", three(good+nx))
	f.Add(strings.Repeat(good, 2400), "not a log line\n", uint16(3))
	f.Add(strings.Repeat(nx, 4000), strings.TrimSuffix(good, "\n"), uint16(1))
	f.Add(strings.Repeat(good, 5000), good[:40], uint16(1))
	f.Add("", "\r", uint16(65535))
	f.Add("", "2018-03-01T00:00:00Z\t1\tc\tq\tA\t0\t60\t1.2.3.4,\n", uint16(1))

	f.Fuzz(func(t *testing.T, head, body string, reps uint16) {
		// Four blocks at most: enough for every carry, short of the hours a
		// one-byte reader would need for the 64 KiB * 65535 the types allow.
		n := int(reps)
		if len(body) > 0 {
			n = min(n, 4*readBlock/len(body)+1)
		}
		if len(head) > readBlock {
			head = head[:readBlock]
		}
		log := head + strings.Repeat(body, n)

		var want []Input
		wantErr := referenceReadLog(strings.NewReader(log), func(in Input) { want = append(want, in) })
		for _, reader := range []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{
			{"whole", func(r io.Reader) io.Reader { return r }},
			{"one-byte", iotest.OneByteReader},
			{"half", iotest.HalfReader},
			{"data-with-EOF", iotest.DataErrReader},
		} {
			name, wrap := reader.name, reader.wrap
			var got []Input
			err := ReadLog(wrap(strings.NewReader(log)), func(in Input) { got = append(got, in) })
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s reader: ReadLog error %v, the Scanner loop's %v", name, err, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s reader: ReadLog emitted %d observations, the Scanner loop %d", name, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if cap(g.Answers) != len(g.Answers) {
					t.Fatalf("%s reader: observation %d: Answers has length %d and capacity %d", name, i, len(g.Answers), cap(g.Answers))
				}
				same := slices.Equal(g.Answers, w.Answers) && (g.Answers == nil) == (w.Answers == nil)
				g.Answers, w.Answers = nil, nil
				if !same || !reflect.DeepEqual(g, w) {
					t.Fatalf("%s reader: observation %d is %+v, the Scanner loop's %+v", name, i, got[i], want[i])
				}
			}
		}
	})
}

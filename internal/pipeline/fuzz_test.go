package pipeline

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
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

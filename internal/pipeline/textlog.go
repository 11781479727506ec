package pipeline

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
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

// WriteLogLine writes a single observation line.
func WriteLogLine(w io.Writer, in Input) error {
	answers := "-"
	if len(in.Answers) > 0 {
		answers = strings.Join(in.Answers, ",")
	}
	_, err := fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\t%d\t%d\t%s\n",
		in.Time.UTC().Format(time.RFC3339Nano), in.TxnID, in.ClientIP,
		in.QName, in.QType, in.RCode, in.TTL, answers)
	return err
}

// ReadLog parses the text log format from r, calling emit for every
// observation. It fails fast on the first malformed line, reporting its
// line number.
func ReadLog(r io.Reader, emit func(Input)) error {
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
		return fmt.Errorf("pipeline: reading log: %w", err)
	}
	return nil
}

// ParseLogLine parses one text log line. Every string in the result is a
// substring of line; the only allocation is the Answers slice.
func ParseLogLine(line string) (Input, error) {
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
		if in.Answers, err = parseAnswers(fields[7]); err != nil {
			return Input{}, err
		}
	}
	return in, nil
}

// parseAnswers cuts a comma-separated answer list. An empty element is
// an error: stored as an address it would be one vertex of the IP view
// shared by every domain with such a line.
func parseAnswers(list string) ([]string, error) {
	answers := make([]string, 0, strings.Count(list, ",")+1)
	for rest, more := list, true; more; {
		var ip string
		ip, rest, more = strings.Cut(rest, ",")
		if ip == "" {
			return nil, fmt.Errorf("empty answer in %q (an empty list is written \"-\")", list)
		}
		answers = append(answers, ip)
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

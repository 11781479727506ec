package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own load client. It is deliberately not
// internal/loadgen: the instrument must not change when the program
// does, and open-loop latencies are taken from each request's due time.

// clock is what the open-loop scheduler needs from time, so the test can
// drive it with a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

// wallClock sleeps coarsely, then yields until the deadline: the kernel
// timer alone overshoots a sub-millisecond sleep by about as much as a
// request takes.
type wallClock struct{}

const sleepSlack = 150 * time.Microsecond

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(d time.Duration) {
	deadline := time.Now().Add(d)
	if d > sleepSlack {
		time.Sleep(d - sleepSlack)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// sample is one request's outcome in a load phase.
type sample struct {
	kind    int
	due     time.Time // open loop: when it should have been sent; closed loop: when it was
	sent    time.Time
	done    time.Time
	ok      bool
	shed    bool
	payload int // domains answered, for batch requests
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// openLoop issues n requests over workers goroutines on a fixed
// schedule: request i is due at start + i*interval whatever the earlier
// ones did. A worker takes the next index, waits until it is due and
// calls do; a request that finds every worker busy goes out late, and its
// latency still counts from the due time.
func openLoop(clk clock, workers, n int, interval time.Duration, do func(worker, i int) sample) []sample {
	out := make([]sample, n)
	start := clk.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := due.Sub(clk.Now()); d > 0 {
					clk.Sleep(d)
				}
				s := do(w, i)
				s.due = due
				out[i] = s
			}
		}(w)
	}
	wg.Wait()
	return out
}

// closedLoop has each worker send its next request as soon as the
// previous one completes, until d has passed.
func closedLoop(workers int, d time.Duration, do func(worker, i int) sample) []sample {
	per := make([][]sample, workers)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				s := do(w, i)
				s.due = s.sent
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// request is one prepared HTTP request.
type request struct {
	kind   int
	method string
	path   string
	body   []byte
	accept string
	want   int // expected status
}

// wire renders the request as HTTP/1.1 bytes.
func (q request) wire(buf []byte) []byte {
	buf = append(buf[:0], q.method...)
	buf = append(buf, ' ')
	buf = append(buf, q.path...)
	buf = append(buf, " HTTP/1.1\r\nHost: bench\r\n"...)
	if q.accept != "" {
		buf = append(buf, "Accept: "...)
		buf = append(buf, q.accept...)
		buf = append(buf, "\r\n"...)
	}
	if q.body != nil {
		buf = append(buf, "Content-Type: application/json\r\nContent-Length: "...)
		buf = strconv.AppendInt(buf, int64(len(q.body)), 10)
		buf = append(buf, "\r\n"...)
	}
	buf = append(buf, "\r\n"...)
	return append(buf, q.body...)
}

// loadConn is one keep-alive connection, written and read by the one
// goroutine that owns it: a request costs two goroutine hand-offs (to the
// server's connection goroutine and back), where net/http's Transport
// adds its own read and write loops and doubles that.
type loadConn struct {
	conn net.Conn
	br   *bufio.Reader
	out  []byte
	body []byte
}

// loadClient holds one connection per worker.
type loadClient struct {
	addr  string
	conns []*loadConn
}

func newLoadClient(addr string, workers int) (*loadClient, error) {
	c := &loadClient{addr: addr}
	for i := 0; i < workers; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			c.close()
			return nil, err
		}
		c.conns = append(c.conns, &loadConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)})
	}
	return c, nil
}

func (c *loadClient) close() {
	for _, lc := range c.conns {
		_ = lc.conn.Close() // read side of a client connection; nothing to flush
	}
}

// do sends req on worker's connection and reads the whole response. The
// returned body is valid until the worker's next call.
func (c *loadClient) do(worker int, req request) (sample, []byte) {
	lc := c.conns[worker]
	s := sample{kind: req.kind, sent: time.Now()}
	lc.out = req.wire(lc.out)
	status, err := 0, lc.conn.SetDeadline(s.sent.Add(30*time.Second))
	if err == nil {
		_, err = lc.conn.Write(lc.out)
	}
	if err == nil {
		status, err = lc.readResponse()
	}
	s.done = time.Now()
	s.payload = bytes.Count(lc.body, []byte{'\n'})
	s.shed = status == http.StatusServiceUnavailable
	s.ok = err == nil && status == req.want
	return s, lc.body
}

// readResponse parses one HTTP/1.1 response into lc.body: a status line,
// headers, and a body framed by Content-Length or chunked encoding.
func (lc *loadConn) readResponse() (int, error) {
	lc.body = lc.body[:0]
	line, err := lc.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 {
		return 0, fmt.Errorf("short status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("status line %q: %w", line, err)
	}
	length, chunked := 0, false
	for {
		line, err := lc.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, val, _ := bytes.Cut(line, []byte(":"))
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return 0, fmt.Errorf("Content-Length %q: %w", val, err)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		}
	}
	if !chunked {
		return status, lc.readBody(length)
	}
	for {
		line, err := lc.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		size, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 32)
		if err != nil {
			return 0, fmt.Errorf("chunk size %q: %w", line, err)
		}
		if err := lc.readBody(int(size)); err != nil {
			return 0, err
		}
		if _, err := lc.br.Discard(2); err != nil { // the chunk's CRLF
			return 0, err
		}
		if size == 0 {
			return status, nil
		}
	}
}

// readBody appends the next n bytes of the stream to lc.body.
func (lc *loadConn) readBody(n int) error {
	at := len(lc.body)
	lc.body = slices.Grow(lc.body, n)[:at+n]
	_, err := io.ReadFull(lc.br, lc.body[at:])
	return err
}

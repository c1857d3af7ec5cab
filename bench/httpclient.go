package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// wireClient is a minimal HTTP/1.1 client over one persistent connection.
// The load generator shares two cores with the server it measures, so the
// client does no more than write preformatted request bytes and frame the
// reply; net/http's client costs about as much CPU per request as the
// server's warm path.
type wireClient struct {
	addr    string
	timeout time.Duration
	conn    net.Conn
	br      *bufio.Reader
	body    []byte
}

func newWireClient(addr string) *wireClient {
	return &wireClient{addr: addr, timeout: 5 * time.Second}
}

func (c *wireClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one preformatted request and returns the status and body. The
// body aliases a buffer reused by the next call. Any error closes the
// connection; the request is not retried.
func (c *wireClient) do(req []byte) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
		if err != nil {
			return 0, nil, err
		}
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 16<<10)
	}
	status, body, err := c.roundTrip(req)
	if err != nil {
		c.close()
	}
	return status, body, err
}

func (c *wireClient) roundTrip(req []byte) (int, []byte, error) {
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, closeAfter := -1, false, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		key, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", val)
			}
		case bytes.EqualFold(key, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(key, []byte("Connection")):
			closeAfter = bytes.EqualFold(val, []byte("close"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		if err := c.readChunked(); err != nil {
			return 0, nil, err
		}
	case length >= 0:
		c.body = grow(c.body, length)
		if _, err := io.ReadFull(c.br, c.body); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errors.New("response has neither Content-Length nor chunked encoding")
	}
	if closeAfter {
		c.close()
	}
	return status, c.body, nil
}

func (c *wireClient) readChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 32)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			_, err = c.br.ReadSlice('\n') // the empty trailer
			return err
		}
		old := len(c.body)
		c.body = grow(c.body, old+int(size))
		if _, err := io.ReadFull(c.br, c.body[old:]); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil {
			return err
		}
	}
}

func grow(b []byte, n int) []byte {
	if cap(b) < n {
		nb := make([]byte, n, n+n/2)
		copy(nb, b)
		return nb
	}
	return b[:n]
}

func getRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

func postRequest(path string, body []byte) []byte {
	head := "POST " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n"
	return append([]byte(head), body...)
}

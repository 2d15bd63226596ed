package queue

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Server exposes a Store over TCP with a line-oriented RESP-like protocol:
//
//	request:  COMMAND [arg ...]\n          (args with spaces are not needed
//	                                        by the workflow's URL-list keys)
//	replies:  +OK\n            simple ok
//	          :<n>\n           integer
//	          $<len>\n<data>\n bulk string
//	          $-1\n            nil
//	          -ERR <msg>\n     error
//
// Supported commands: PING, SET, GET, DEL, INCRBY, LPUSH, RPUSH, LPOP, RPOP,
// LLEN, LRANGE, KEYS.
type Server struct {
	store *Store
	ln    net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts a server for store on addr (use "127.0.0.1:0" for an
// ephemeral port) and returns once listening.
func Serve(store *Store, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{store: store, ln: ln, conns: make(map[net.Conn]struct{})}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all open connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		// Tolerate interactive clients (telnet, nc -C): CRLF line endings
		// are trimmed and blank keep-alive lines are skipped without a
		// reply. Unknown commands answer -ERR (dispatch) rather than
		// dropping the connection, so a typo costs one error line, not the
		// session.
		parts := strings.Fields(strings.TrimRight(line, "\r\n"))
		if len(parts) == 0 {
			continue
		}
		reply := s.dispatch(parts)
		if _, err := w.WriteString(reply); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func bulk(v string) string { return fmt.Sprintf("$%d\n%s\n", len(v), v) }

const nilReply = "$-1\n"

func (s *Server) dispatch(parts []string) string {
	if len(parts) == 0 {
		return "-ERR empty command\n"
	}
	cmd := strings.ToUpper(parts[0])
	args := parts[1:]
	switch cmd {
	case "PING":
		return "+PONG\n"
	case "SET":
		if len(args) != 2 {
			return "-ERR SET needs key value\n"
		}
		s.store.Set(args[0], args[1])
		return "+OK\n"
	case "GET":
		if len(args) != 1 {
			return "-ERR GET needs key\n"
		}
		v, ok := s.store.Get(args[0])
		if !ok {
			return nilReply
		}
		return bulk(v)
	case "DEL":
		if len(args) != 1 {
			return "-ERR DEL needs key\n"
		}
		return fmt.Sprintf(":%d\n", s.store.Del(args[0]))
	case "INCRBY":
		if len(args) != 2 {
			return "-ERR INCRBY needs key delta\n"
		}
		d, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return "-ERR bad integer\n"
		}
		return fmt.Sprintf(":%d\n", s.store.Incr(args[0], d))
	case "LPUSH", "RPUSH":
		if len(args) < 2 {
			return "-ERR " + cmd + " needs key value...\n"
		}
		var n int
		if cmd == "LPUSH" {
			n = s.store.LPush(args[0], args[1:]...)
		} else {
			n = s.store.RPush(args[0], args[1:]...)
		}
		return fmt.Sprintf(":%d\n", n)
	case "LPOP", "RPOP":
		if len(args) != 1 {
			return "-ERR " + cmd + " needs key\n"
		}
		var v string
		var ok bool
		if cmd == "LPOP" {
			v, ok = s.store.LPop(args[0])
		} else {
			v, ok = s.store.RPop(args[0])
		}
		if !ok {
			return nilReply
		}
		return bulk(v)
	case "LLEN":
		if len(args) != 1 {
			return "-ERR LLEN needs key\n"
		}
		return fmt.Sprintf(":%d\n", s.store.LLen(args[0]))
	case "LRANGE":
		if len(args) != 3 {
			return "-ERR LRANGE needs key start stop\n"
		}
		start, err1 := strconv.Atoi(args[1])
		stop, err2 := strconv.Atoi(args[2])
		if err1 != nil || err2 != nil {
			return "-ERR bad index\n"
		}
		items := s.store.LRange(args[0], start, stop)
		var b strings.Builder
		fmt.Fprintf(&b, "*%d\n", len(items))
		for _, it := range items {
			b.WriteString(bulk(it))
		}
		return b.String()
	case "KEYS":
		keys := s.store.Keys()
		var b strings.Builder
		fmt.Fprintf(&b, "*%d\n", len(keys))
		for _, k := range keys {
			b.WriteString(bulk(k))
		}
		return b.String()
	default:
		return fmt.Sprintf("-ERR unknown command %q\n", cmd)
	}
}

// Client is a minimal synchronous client for Server's protocol.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
}

// Dial connects to a Server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ErrNil is returned for nil replies (missing key / empty list).
var ErrNil = errors.New("queue: nil reply")

// Do sends a command and decodes one reply. Integer replies return int64,
// bulk strings return string, arrays return []string, +OK/+PONG return
// their text.
func (c *Client) Do(parts ...string) (any, error) {
	if _, err := fmt.Fprintf(c.conn, "%s\n", strings.Join(parts, " ")); err != nil {
		return nil, err
	}
	return readReply(c.r)
}

// readReply decodes one reply. No length in a header sizes an allocation:
// a bulk payload and an array's elements are stored as they arrive, so what
// a reply costs is proportional to the bytes the peer actually sent.
func readReply(r *bufio.Reader) (any, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	switch line[0] {
	case '+':
		return line[1:], nil
	case '-':
		return nil, errors.New(strings.TrimPrefix(line[1:], "ERR "))
	case ':':
		return strconv.ParseInt(line[1:], 10, 64)
	case '$':
		return readBulk(r, line)
	case '*':
		n, err := strconv.Atoi(line[1:])
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("queue: negative array length %d", n)
		}
		out := []string{}
		for ; n > 0; n-- {
			line, err := readLine(r)
			if err != nil {
				return nil, err
			}
			if line[0] != '$' {
				return nil, errors.New("queue: non-string array element")
			}
			s, err := readBulk(r, line)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}
	return nil, fmt.Errorf("queue: bad reply %q", line)
}

// readLine reads one non-empty reply line without its newline.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimSuffix(line, "\n")
	if line == "" {
		return "", errors.New("queue: empty reply")
	}
	return line, nil
}

// bulkChunk is how much of a bulk payload is read at a time: storage grows
// only as chunks fill, so a length the peer never sends costs one chunk.
const bulkChunk = 4 << 10

// readBulk reads the payload and newline that follow a "$<len>" header
// line; a negative length is the nil reply.
func readBulk(r *bufio.Reader, header string) (string, error) {
	n, err := strconv.Atoi(header[1:])
	if err != nil {
		return "", err
	}
	if n < 0 {
		return "", ErrNil
	}
	var buf []byte
	for len(buf) < n {
		k := min(n-len(buf), bulkChunk)
		buf = slices.Grow(buf, k)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+k]); err != nil {
			return "", err
		}
		buf = buf[:len(buf)+k]
	}
	end, err := r.ReadByte()
	if err != nil {
		return "", err
	}
	if end != '\n' {
		return "", fmt.Errorf("queue: bulk reply of %d bytes not newline-terminated", n)
	}
	return string(buf), nil
}

// Convenience wrappers used by examples.

// RPop pops the tail of a list; ErrNil when empty.
func (c *Client) RPop(key string) (string, error) {
	v, err := c.Do("RPOP", key)
	if err != nil {
		return "", err
	}
	return v.(string), nil
}

// LPush pushes a value, returning the new length.
func (c *Client) LPush(key, value string) (int64, error) {
	v, err := c.Do("LPUSH", key, value)
	if err != nil {
		return 0, err
	}
	return v.(int64), nil
}

// LLen returns the list length.
func (c *Client) LLen(key string) (int64, error) {
	v, err := c.Do("LLEN", key)
	if err != nil {
		return 0, err
	}
	return v.(int64), nil
}

package queue

import (
	"bufio"
	"bytes"
	"errors"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Native fuzz target for the client's reply decoder, the one decoder a
// queue peer's bytes reach. Invariants: no panic; nothing allocated beyond a
// small multiple of the input, whatever a header's length claims; and the
// reply dispatch writes for any command line decodes to the value the store
// holds. The seeds pair replies — well-formed, and the three hostile headers
// that crashed or ballooned the old decoder — with command lines covering
// every command.

// replyAllocFactor and replyAllocSlack bound what readReply may allocate for
// an n-byte reply: an empty array element is a 16-byte string header, in a
// list grown by doubling, for 4 bytes of input; the slack covers one bulk
// chunk, error text and the fuzz worker's own goroutines.
const (
	replyAllocFactor = 32
	replyAllocSlack  = 64 << 10
)

func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func FuzzReadReply(f *testing.F) {
	for _, seed := range []struct{ reply, line string }{
		{"+OK\n", "PING"},
		{":42\n", "SET k v2"},
		{"$5\nhello\n", "GET k"},
		{"$-1\n", "GET missing"},
		{"*2\n$1\na\n$1\nb\n", "LRANGE l 0 -1"},
		{"*0\n", "KEYS"},
		{"-ERR nope\n", "NOSUCH"},
		{"*-1\n", "RPOP l"},
		{"$9223372036854775807\n", "LPOP l"},
		{"$1000000000\nab", "INCRBY n 1"},
		{"*1000000000\n$0\n\n", "INCRBY x -9223372036854775808"},
		{"$3\nabcX", "LPUSH l x y"},
		{"*1\n:1\n", "DEL l"},
		{"", "LLEN l"},
	} {
		f.Add([]byte(seed.reply), seed.line)
	}
	f.Fuzz(func(t *testing.T, reply []byte, line string) {
		r := bufio.NewReader(bytes.NewReader(reply))
		if got := allocatedBy(func() { readReply(r) }); got > uint64(replyAllocFactor*len(reply)+replyAllocSlack) {
			t.Fatalf("readReply allocated %d bytes for a %d-byte reply", got, len(reply))
		}
		checkDispatchRoundTrip(t, line)
	})
}

// checkDispatchRoundTrip runs one command line against a small store and
// decodes the reply: it must consume the reply exactly and equal what the
// store holds — read after the command, or before it for what the command
// removes.
func checkDispatchRoundTrip(t *testing.T, line string) {
	t.Helper()
	parts := strings.Fields(line)
	if len(parts) == 0 {
		return
	}
	st := NewStore()
	st.Set("k", "v")
	st.Set("n", "41")
	st.RPush("l", "a", "b", "c")
	var key string
	if len(parts) > 1 {
		key = parts[1]
	}
	_, hadValue := st.Get(key)
	list := st.LRange(key, 0, -1)

	reply := (&Server{store: st}).dispatch(parts)
	r := bufio.NewReader(strings.NewReader(reply))
	got, err := readReply(r)
	if r.Buffered() > 0 {
		t.Fatalf("%q: reply %q decoded with %d bytes left over", line, reply, r.Buffered())
	}
	if strings.HasPrefix(reply, "-") {
		if err == nil {
			t.Fatalf("%q: error reply %q decoded as %v", line, reply, got)
		}
		return
	}

	var want any
	wantErr := error(nil)
	popped := func(i int) {
		if len(list) == 0 {
			wantErr = ErrNil
			return
		}
		want = list[i]
	}
	switch cmd := strings.ToUpper(parts[0]); cmd {
	case "PING":
		want = "PONG"
	case "SET":
		want = "OK"
	case "GET":
		if v, ok := st.Get(key); ok {
			want = v
		} else {
			wantErr = ErrNil
		}
	case "LPOP":
		popped(0)
	case "RPOP":
		popped(len(list) - 1)
	case "DEL":
		n := int64(len(list))
		if n > 0 {
			n = 1
		}
		if hadValue {
			n++
		}
		want = n
	case "INCRBY":
		v, _ := st.Get(key)
		n, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil {
			t.Fatalf("%q: store holds %q, not an integer", line, v)
		}
		want = n
	case "LLEN", "LPUSH", "RPUSH":
		want = int64(st.LLen(key))
	case "LRANGE":
		start, _ := strconv.Atoi(parts[2])
		stop, _ := strconv.Atoi(parts[3])
		want = st.LRange(key, start, stop)
	case "KEYS":
		want = st.Keys()
	default:
		t.Fatalf("%q: unknown command answered %q", line, reply)
	}
	if !errors.Is(err, wantErr) {
		t.Fatalf("%q: reply %q decoded to error %v, want %v", line, reply, err, wantErr)
	}
	if ws, ok := want.([]string); ok {
		if gs, ok := got.([]string); !ok || !slices.Equal(gs, ws) {
			t.Fatalf("%q: reply %q decoded to %#v, store holds %#v", line, reply, got, ws)
		}
	} else if wantErr == nil && got != want {
		t.Fatalf("%q: reply %q decoded to %#v, store holds %#v", line, reply, got, want)
	}
}

// TestReadReplyRefusesHostileHeaders: the three headers that crashed or
// ballooned the decoder when it sized storage from them — a negative array
// length (makeslice panic), a bulk length whose +1 overflows, and a bulk
// length of a gigabyte with no payload behind it — are refused within the
// fuzz target's slack (one 4 KB chunk, measured; 8 KB under -race).
func TestReadReplyRefusesHostileHeaders(t *testing.T) {
	for _, reply := range []string{"*-1\n", "$9223372036854775807\n", "$1000000000\n", "*1000000000\n"} {
		r := bufio.NewReader(strings.NewReader(reply))
		var err error
		if got := allocatedBy(func() { _, err = readReply(r) }); got > replyAllocSlack {
			t.Errorf("%q: allocated %d bytes", reply, got)
		}
		if err == nil {
			t.Errorf("%q: accepted", reply)
		}
	}
}

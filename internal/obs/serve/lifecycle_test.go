package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/mmtag/mmtag/internal/obs"
)

// TestSlowHeaderClientDropped: a client that never finishes its request
// headers is disconnected once readHeaderTimeout passes, instead of
// holding a connection and its goroutine for as long as it likes.
func TestSlowHeaderClientDropped(t *testing.T) {
	old := readHeaderTimeout
	readHeaderTimeout = 100 * time.Millisecond
	defer func() { readHeaderTimeout = old }()
	run, err := New(nil, nil).Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	conn, err := net.Dial("tcp", run.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// No blank line: the header block never ends.
	if _, err := fmt.Fprint(conn, "GET /healthz HTTP/1.1\r\nHost: mmtag\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open 5 s after a 100 ms header timeout: %v", err)
	}
}

// TestCloseEndsOpenStream: Close ends a connected /stream response
// (which never finishes by itself) without waiting out the shutdown
// timeout, and every goroutine the server and the client started exits.
func TestCloseEndsOpenStream(t *testing.T) {
	base := runtime.NumGoroutine()
	run, err := New(obs.NewRegistry(), nil).Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	resp, err := (&http.Client{Transport: tr}).Get("http://" + run.Addr() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	body := bufio.NewReader(resp.Body)
	if line, err := body.ReadString('\n'); err != nil || !strings.HasPrefix(line, "data: ") {
		t.Fatalf("first SSE line %q, %v", line, err)
	}
	ended := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, body)
		ended <- err
	}()

	start := time.Now()
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= shutdownTimeout {
		t.Errorf("Close took %v: the open stream held shutdown to its timeout", d)
	}
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream still open 5 s after Close")
	}
	resp.Body.Close()
	tr.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

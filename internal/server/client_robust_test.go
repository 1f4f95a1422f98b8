package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// busyServer is a protocol-speaking stub that sheds the first busyCount
// Call requests with a Busy response (and retryAfter hint) before serving
// the rest normally. It returns the listen address and a counter of Call
// requests seen.
func busyServer(t *testing.T, busyCount int64, retryAfter time.Duration) (string, *atomic.Int64) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	calls := new(atomic.Int64)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var frame []byte
		for {
			payload, err := readFrame(br, &frame)
			if err != nil {
				return
			}
			var req Request
			if err := decodeRequest(payload, &req); err != nil {
				return
			}
			resp := Response{ID: req.ID}
			if req.Kind == KindCall {
				if n := calls.Add(1); n <= busyCount {
					resp.Err = "server overloaded"
					resp.Busy = true
					resp.RetryAfter = retryAfter
				} else {
					resp.Out = map[string]string{"status": "ok"}
				}
			}
			if _, err := conn.Write(appendResponse(nil, &resp)); err != nil {
				return
			}
		}
	}()
	return lis.Addr().String(), calls
}

// TestCallDeadlineNeverHangs points the client at a black hole: the call
// must come back by its deadline with a typed, retryable,
// possibly-executed error — never hang.
func TestCallDeadlineNeverHangs(t *testing.T) {
	addr := blackholeListener(t)
	cl, err := DialOptions(addr, Options{CallTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, err = cl.Call("Anything", "k", nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against a black hole succeeded")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("call hung %v past its 150ms deadline", elapsed)
	}
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *Error", err, err)
	}
	if !ce.Retryable || !ce.MaybeExecuted {
		t.Errorf("deadline error Retryable=%v MaybeExecuted=%v, want true/true", ce.Retryable, ce.MaybeExecuted)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want to wrap context.DeadlineExceeded", err)
	}
	// The pooled reply channel must have been reclaimed cleanly: a fresh
	// request must not receive the stale response. (Exercised implicitly by
	// reusing the client.)
	if err := cl.PingCtx(contextWithTimeout(t, 100*time.Millisecond)); err == nil {
		t.Error("ping against a black hole succeeded")
	}
}

func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// TestCallCtxCancel cancels mid-flight; the call returns promptly with the
// cancellation, not the 30s default deadline.
func TestCallCtxCancel(t *testing.T) {
	addr := blackholeListener(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.CallCtx(ctx, "Anything", "k", nil)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled call did not return")
	}
}

// TestBusyTypedError checks that a shed response surfaces as a typed
// retryable error carrying the server's retry-after hint, marked
// definitely-not-executed.
func TestBusyTypedError(t *testing.T) {
	addr, _ := busyServer(t, 1<<30, 25*time.Millisecond)
	cl, err := DialOptions(addr, Options{MaxRetries: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Call("Anything", "k", nil)
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *Error", err, err)
	}
	if !errors.Is(err, ErrServerBusy) {
		t.Errorf("err = %v, want to wrap ErrServerBusy", err)
	}
	if !ce.Retryable || ce.MaybeExecuted {
		t.Errorf("busy error Retryable=%v MaybeExecuted=%v, want true/false", ce.Retryable, ce.MaybeExecuted)
	}
	if ce.RetryAfter != 25*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 25ms", ce.RetryAfter)
	}
	if !IsRetryable(err) {
		t.Error("IsRetryable(busy) = false")
	}
}

// TestBusyAutoRetrySucceeds: shed twice, then served — the retry policy
// should push through without caller involvement, honoring backoff.
func TestBusyAutoRetrySucceeds(t *testing.T) {
	addr, calls := busyServer(t, 2, time.Millisecond)
	cl, err := DialOptions(addr, Options{MaxRetries: 4, retryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Call("Anything", "k", nil)
	if err != nil {
		t.Fatalf("call should retry through busy: %v", err)
	}
	if res.Out["status"] != "ok" {
		t.Errorf("Out = %v, want status ok", res.Out)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d call attempts, want 3", got)
	}
	if got := cl.Retries(); got != 2 {
		t.Errorf("client retries = %d, want 2", got)
	}
}

// TestReconnectHeals severs the established connection server-side; with
// Reconnect on, an idempotent request retried under the policy must
// succeed on the healed connection.
func TestReconnectHeals(t *testing.T) {
	// startTestServer already listened; WrapConns must precede Listen, so
	// close that server and stand up a second one on the same cluster with
	// the wrap hook installed.
	srv, _, c := startTestServer(t)
	srv.Close()
	lastConn := new(atomic.Pointer[net.Conn])
	srv2 := New(c, srv.mig, nil)
	srv2.WrapConns(func(conn net.Conn) net.Conn {
		lastConn.Store(&conn)
		return conn
	})
	addr, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })

	cl, err := DialOptions(addr, Options{Reconnect: true, MaxRetries: 8, retryBase: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if p := lastConn.Load(); p != nil {
		(*p).Close() // abrupt server-side sever of the live connection
	} else {
		t.Fatal("wrap hook never saw the connection")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := cl.Ping(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never healed after connection loss")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cl.Reconnects() == 0 {
		t.Error("reconnect counter is zero after a healed connection loss")
	}
}

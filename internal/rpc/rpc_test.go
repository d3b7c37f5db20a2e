package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

type echoReq struct {
	Msg string
	N   int
}

type echoResp struct {
	Msg string
	N   int
}

func newEchoServer(t *testing.T) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	return serveEcho(t, ln), ln.Addr().String()
}

// serveEcho serves the echo methods on ln until the test ends.
func serveEcho(t *testing.T, ln net.Listener) *Server {
	s := NewServer()
	s.Register("Echo", echoReq{}, func(_ context.Context, arg any) (any, error) {
		r := arg.(echoReq)
		return echoResp{Msg: r.Msg, N: r.N + 1}, nil
	})
	s.Register("Fail", echoReq{}, func(_ context.Context, arg any) (any, error) {
		return nil, errors.New("boom")
	})
	s.RegisterStream("Count", echoReq{}, func(ctx context.Context, arg any, send func(any) error) error {
		r := arg.(echoReq)
		for i := 0; i < r.N; i++ {
			if err := send(echoResp{Msg: r.Msg, N: i}); err != nil {
				return err
			}
		}
		return nil
	})
	s.RegisterStream("Forever", echoReq{}, func(ctx context.Context, arg any, send func(any) error) error {
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return nil
			default:
			}
			if err := send(echoResp{N: i}); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	})
	go s.Serve(ln) //nolint:errcheck // lifetime tied to Close
	t.Cleanup(s.Close)
	return s
}

func TestUnaryCall(t *testing.T) {
	_, addr := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp echoResp
	if err := c.Call(context.Background(), "Echo", echoReq{Msg: "hi", N: 41}, &resp); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Msg != "hi" || resp.N != 42 {
		t.Fatalf("resp = %+v, want {hi 42}", resp)
	}
}

func TestRemoteError(t *testing.T) {
	_, addr := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call(context.Background(), "Fail", echoReq{}, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Message != "boom" {
		t.Fatalf("message = %q, want boom", re.Message)
	}
}

func TestMethodNotFound(t *testing.T) {
	_, addr := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call(context.Background(), "Nope", echoReq{}, nil)
	if err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestServerStream(t *testing.T) {
	_, addr := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sr, err := c.Stream(context.Background(), "Count", echoReq{Msg: "s", N: 5})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for {
		var item echoResp
		err := sr.Recv(&item)
		if errors.Is(err, ErrStreamDone) {
			break
		}
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		got = append(got, item.N)
	}
	if len(got) != 5 {
		t.Fatalf("received %d items, want 5: %v", len(got), got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("items out of order: %v", got)
		}
	}
}

func TestStreamCancel(t *testing.T) {
	_, addr := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	sr, err := c.Stream(ctx, "Forever", echoReq{})
	if err != nil {
		t.Fatal(err)
	}
	var item echoResp
	if err := sr.Recv(&item); err != nil {
		t.Fatalf("first Recv: %v", err)
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := sr.Recv(&item); err != nil {
			return // cancelled as expected
		}
	}
	t.Fatal("stream did not observe cancellation")
}

func TestConcurrentCallsOneConn(t *testing.T) {
	_, addr := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp echoResp
			if err := c.Call(context.Background(), "Echo", echoReq{N: i}, &resp); err != nil {
				errs <- err
				return
			}
			if resp.N != i+1 {
				errs <- fmt.Errorf("call %d got %d", i, resp.N)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseFailsInflight(t *testing.T) {
	s := NewServer()
	started := make(chan struct{})
	s.Register("Slow", echoReq{}, func(ctx context.Context, arg any) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	callErr := make(chan error, 1)
	go func() {
		callErr <- c.Call(context.Background(), "Slow", echoReq{}, nil)
	}()
	<-started
	s.Close()
	select {
	case err := <-callErr:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("err = %v, want ErrConnClosed", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("call did not fail after server close")
	}
}

func TestBalancerFailover(t *testing.T) {
	reg := NewRegistry()
	s1, addr1 := newEchoServer(t)
	_, addr2 := newEchoServer(t)
	reg.Add("api", addr1)
	reg.Add("api", addr2)
	b := NewBalancer(reg, "api")
	defer b.Close()

	var resp echoResp
	if err := b.Call(context.Background(), "Echo", echoReq{N: 1}, &resp); err != nil {
		t.Fatalf("initial call: %v", err)
	}
	// Kill one replica; calls must keep succeeding via the other.
	s1.Close()
	reg.Remove("api", addr1)
	for i := 0; i < 10; i++ {
		if err := b.Call(context.Background(), "Echo", echoReq{N: i}, &resp); err != nil {
			t.Fatalf("call after replica crash: %v", err)
		}
	}
}

func TestBalancerFailoverWithStaleRegistry(t *testing.T) {
	// Even when the registry still lists a dead replica, calls fail over.
	reg := NewRegistry()
	s1, addr1 := newEchoServer(t)
	_, addr2 := newEchoServer(t)
	reg.Add("api", addr1)
	reg.Add("api", addr2)
	b := NewBalancer(reg, "api")
	defer b.Close()
	var resp echoResp
	if err := b.Call(context.Background(), "Echo", echoReq{}, &resp); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	for i := 0; i < 6; i++ {
		if err := b.Call(context.Background(), "Echo", echoReq{N: i}, &resp); err != nil {
			t.Fatalf("stale-registry failover call %d: %v", i, err)
		}
	}
}

func TestBalancerNoEndpoints(t *testing.T) {
	b := NewBalancer(NewRegistry(), "ghost")
	defer b.Close()
	err := b.Call(context.Background(), "Echo", echoReq{}, nil)
	if !errors.Is(err, ErrNoEndpoints) {
		t.Fatalf("err = %v, want ErrNoEndpoints", err)
	}
}

func TestRegistryAddRemove(t *testing.T) {
	reg := NewRegistry()
	reg.Add("svc", "a")
	reg.Add("svc", "b")
	reg.Add("svc", "a") // duplicate ignored
	if got := reg.Lookup("svc"); len(got) != 2 {
		t.Fatalf("lookup = %v, want 2 addrs", got)
	}
	reg.Remove("svc", "a")
	if got := reg.Lookup("svc"); len(got) != 1 || got[0] != "b" {
		t.Fatalf("lookup after remove = %v, want [b]", got)
	}
	reg.Remove("svc", "missing") // no-op
}

func TestInterceptRejects(t *testing.T) {
	s, addr := newEchoServer(t)
	s.Intercept = func(m string) error {
		if m == "Echo" {
			return errors.New("injected fault")
		}
		return nil
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call(context.Background(), "Echo", echoReq{}, nil)
	if err == nil {
		t.Fatal("intercepted call succeeded")
	}
}

// Property: Echo is the identity on messages for arbitrary payloads.
func TestEchoRoundTripProperty(t *testing.T) {
	_, addr := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f := func(msg string, n int) bool {
		var resp echoResp
		if err := c.Call(context.Background(), "Echo", echoReq{Msg: msg, N: n}, &resp); err != nil {
			return false
		}
		return resp.Msg == msg && resp.N == n+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRPCRoundtrip measures the unary wire path — client argument
// encode, frame multiplex, server decode/dispatch, reply encode, client
// decode — with allocation counts, pinning the pooled-buffer hot path.
func BenchmarkRPCRoundtrip(b *testing.B) {
	s := NewServer()
	s.Register("Echo", echoReq{}, func(_ context.Context, arg any) (any, error) {
		r := arg.(echoReq)
		return echoResp{Msg: r.Msg, N: r.N + 1}, nil
	})
	addr, err := s.Listen()
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	defer s.Close()
	conn, err := Dial(addr)
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	ctx := context.Background()
	req := echoReq{Msg: "payload-for-the-roundtrip-benchmark", N: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var resp echoResp
		if err := conn.Call(ctx, "Echo", req, &resp); err != nil {
			b.Fatal(err)
		}
		if resp.N != req.N+1 {
			b.Fatalf("bad reply: %+v", resp)
		}
	}
}

// TestCallKeepsReplyWhenEndRacesData pins the unary-reply race: the
// read loop queues a reply's data frame and then its end frame, and a
// caller that reaches its select only after both are queued sees two
// ready channels, of which select picks one at random. Taking the end
// first must not lose the body. Both frames are pre-delivered here, so
// every iteration is that worst case; before the fix about half of
// them came back nil with an untouched reply.
func TestCallKeepsReplyWhenEndRacesData(t *testing.T) {
	body, err := appendBody(nil, echoResp{Msg: "hi", N: 42})
	if err != nil {
		t.Fatal(err)
	}
	c := &Conn{calls: make(map[uint64]*call)}
	for i := 0; i < 4000; i++ {
		cl := &call{data: make(chan []byte, 16), done: make(chan error, 1)}
		cl.data <- body
		cl.done <- nil
		var resp echoResp
		if err := c.await(context.Background(), uint64(i), cl, "Echo", &resp); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.Msg != "hi" || resp.N != 42 {
			t.Fatalf("call %d: reply = %+v, want {hi 42} (end frame won the select and the body was dropped)", i, resp)
		}
	}
}

// tapListener records what the server does on the connections it
// accepts: how many writes it makes, and every byte it reads.
type tapListener struct {
	net.Listener
	mu     sync.Mutex
	writes int
	read   []byte
}

type tapConn struct {
	net.Conn
	l *tapListener
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tapConn{c, l}, nil
}

func (c tapConn) Write(b []byte) (int, error) {
	c.l.mu.Lock()
	c.l.writes++
	c.l.mu.Unlock()
	return c.Conn.Write(b)
}

func (c tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.mu.Lock()
	c.l.read = append(c.l.read, b[:n]...)
	c.l.mu.Unlock()
	return n, err
}

// TestUnaryReplyIsOneWriteAndEndedStreamSendsNoCancel pins two costs of
// the wire: a unary reply's data and end frames leave the server in one
// write, and a stream the client reads to its end is closed without a
// cancel frame.
func TestUnaryReplyIsOneWriteAndEndedStreamSendsNoCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapListener{Listener: ln}
	serveEcho(t, tap)
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	const calls = 3
	for i := 0; i < calls; i++ {
		var resp echoResp
		if err := c.Call(ctx, "Echo", echoReq{Msg: "hi", N: i}, &resp); err != nil || resp.N != i+1 {
			t.Fatalf("Call %d = %+v, %v", i, resp, err)
		}
	}
	tap.mu.Lock()
	writes := tap.writes
	tap.mu.Unlock()
	if writes != calls {
		t.Fatalf("%d unary calls took %d server writes, want one each", calls, writes)
	}

	sr, err := c.Stream(ctx, "Count", echoReq{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	items := 0
	for {
		var resp echoResp
		err := sr.Recv(&resp)
		if errors.Is(err, ErrStreamDone) {
			break
		}
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		items++
	}
	sr.Close()
	if items != 3 {
		t.Fatalf("stream delivered %d items, want 3", items)
	}
	// Frames on a connection arrive in order: once this call is
	// answered, the server has read whatever the client sent before it.
	if err := c.Call(ctx, "Echo", echoReq{}, nil); err != nil {
		t.Fatal(err)
	}
	tap.mu.Lock()
	br := bufio.NewReader(bytes.NewReader(tap.read))
	tap.mu.Unlock()
	kinds := map[frameKind]int{}
	for {
		var f frame
		if err := readFrame(br, &f); err != nil {
			break
		}
		kinds[f.Kind]++
	}
	if kinds[frameCall] != calls+2 || kinds[frameCancel] != 0 {
		t.Fatalf("server read %d call and %d cancel frames, want %d and 0", kinds[frameCall], kinds[frameCancel], calls+2)
	}
}

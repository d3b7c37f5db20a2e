package rpc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// call tracks one in-flight request on a client connection.
type call struct {
	data chan []byte
	done chan error // buffered(1); receives terminal status
}

// Conn is a multiplexed client connection to one server replica.
type Conn struct {
	mu     sync.Mutex
	nc     net.Conn
	wbuf   []byte // reused frame-encode buffer, guarded by mu
	body   []byte // reused body-encode buffer, guarded by mu
	nextID uint64
	calls  map[uint64]*call
	closed bool

	// addr/faults are set by the Balancer that dialed this connection;
	// when the registry has a fault injector installed, each request
	// frame draws a drop/duplicate/delay outcome for this link.
	addr   string
	faults *atomic.Pointer[Faults]
}

// Dial connects to a server address with a short timeout appropriate for
// loopback transports.
func Dial(addr string) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	c := &Conn{nc: nc, calls: make(map[uint64]*call)}
	go c.readLoop()
	return c, nil
}

// writeFrame encodes f into the connection's reused buffer and writes
// it in one syscall. Callers must hold c.mu (which also serializes
// frames on the wire).
func (c *Conn) writeFrame(f *frame) error {
	c.wbuf = appendFrame(c.wbuf[:0], f)
	_, err := c.nc.Write(c.wbuf)
	return err
}

// Close tears down the connection; in-flight calls fail with
// ErrConnClosed.
func (c *Conn) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.nc.Close()
}

func (c *Conn) readLoop() {
	br := bufio.NewReader(c.nc)
	// One frame struct reused for the connection's lifetime; only the
	// fields a frame carries are (re)allocated per read.
	var f frame
	for {
		if err := readFrame(br, &f); err != nil {
			c.mu.Lock()
			c.closed = true
			calls := c.calls
			c.calls = make(map[uint64]*call)
			c.mu.Unlock()
			c.nc.Close()
			for _, cl := range calls {
				cl.done <- ErrConnClosed
			}
			return
		}
		c.mu.Lock()
		cl := c.calls[f.ID]
		c.mu.Unlock()
		if cl == nil {
			continue // late frame for a cancelled call
		}
		switch f.Kind {
		case frameData:
			cl.data <- f.Body
		case frameEnd:
			c.finish(f.ID, cl, nil)
		case frameError:
			c.finish(f.ID, cl, &RemoteError{Method: f.Method, Message: f.Err})
		}
	}
}

func (c *Conn) finish(id uint64, cl *call, err error) {
	c.mu.Lock()
	delete(c.calls, id)
	c.mu.Unlock()
	cl.done <- err
}

func (c *Conn) start(methodName string, arg any) (uint64, *call, error) {
	var drop, dup bool
	if c.faults != nil {
		if f := c.faults.Load(); f != nil {
			var delay time.Duration
			drop, dup, delay = f.decide(c.addr)
			if delay > 0 {
				f.clock.Sleep(delay)
			}
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, nil, ErrConnClosed
	}
	body, err := appendBody(c.body[:0], arg)
	c.body = body
	if err != nil {
		c.mu.Unlock()
		return 0, nil, fmt.Errorf("rpc: encode %s argument: %w", methodName, err)
	}
	c.nextID++
	id := c.nextID
	cl := &call{data: make(chan []byte, 16), done: make(chan error, 1)}
	c.calls[id] = cl
	if drop {
		// Injected frame loss: the call is registered but never sent, so
		// it hangs exactly like a lost packet until the caller's context
		// (or a resilience deadline) rescues it.
		c.mu.Unlock()
		return id, cl, nil
	}
	f := frame{Kind: frameCall, ID: id, Method: methodName, Body: body}
	err = c.writeFrame(&f)
	if err == nil && dup {
		// Injected duplicate delivery: the server runs the method twice;
		// the client keeps the first response and drops the straggler.
		err = c.writeFrame(&f)
	}
	c.mu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.calls, id)
		c.mu.Unlock()
		return 0, nil, ErrConnClosed
	}
	return id, cl, nil
}

func (c *Conn) cancel(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	delete(c.calls, id)
	c.writeFrame(&frame{Kind: frameCancel, ID: id}) //nolint:errcheck
}

// Call performs a unary RPC, decoding the reply into the pointer reply
// (which may be nil to discard it).
func (c *Conn) Call(ctx context.Context, methodName string, arg, reply any) error {
	id, cl, err := c.start(methodName, arg)
	if err != nil {
		return err
	}
	return c.await(ctx, id, cl, methodName, reply)
}

// await blocks until a started unary call completes and decodes its
// reply body.
func (c *Conn) await(ctx context.Context, id uint64, cl *call, methodName string, reply any) error {
	var body []byte
	for {
		select {
		case <-ctx.Done():
			c.cancel(id)
			return ErrCanceled
		case b := <-cl.data:
			body = b
		case err := <-cl.done:
			if err != nil {
				return err
			}
			// The read loop queues the reply's data frame before its end
			// frame, but select picks among ready channels at random:
			// done may win while the body is still sitting in data.
			select {
			case body = <-cl.data:
			default:
			}
			if reply != nil && len(body) > 0 {
				if err := decodeBody(reply, body); err != nil {
					return fmt.Errorf("rpc: decode %s reply: %w", methodName, err)
				}
			}
			return nil
		}
	}
}

// Stream starts a server-streaming RPC and returns a StreamReader.
func (c *Conn) Stream(ctx context.Context, methodName string, arg any) (*StreamReader, error) {
	id, cl, err := c.start(methodName, arg)
	if err != nil {
		return nil, err
	}
	return &StreamReader{conn: c, id: id, cl: cl, ctx: ctx, method: methodName}, nil
}

// StreamReader iterates a server stream.
type StreamReader struct {
	conn   *Conn
	id     uint64
	cl     *call
	ctx    context.Context
	method string
	// ended is set once the call's terminal status (endErr, nil for a
	// clean end) has arrived. The read loop queues every data frame
	// before it, so items still in cl.data are delivered first.
	ended  bool
	endErr error
	err    error
	done   bool
}

// Recv decodes the next stream item into the pointer msg. It returns
// ErrStreamDone once the server finishes the stream cleanly. An item
// that fails to decode is reported as an error; the stream goes on.
func (r *StreamReader) Recv(msg any) error {
	if r.done {
		if r.err != nil {
			return r.err
		}
		return ErrStreamDone
	}
	if !r.ended {
		select {
		case <-r.ctx.Done():
			r.Close()
			r.err = ErrCanceled
			return r.err
		case body := <-r.cl.data:
			return r.decode(msg, body)
		case err := <-r.cl.done:
			r.ended, r.endErr = true, err
		}
	}
	select {
	case body := <-r.cl.data:
		return r.decode(msg, body)
	default:
	}
	r.done, r.err = true, r.endErr
	if r.err != nil {
		return r.err
	}
	return ErrStreamDone
}

func (r *StreamReader) decode(msg any, body []byte) error {
	if msg != nil && len(body) > 0 {
		if err := decodeBody(msg, body); err != nil {
			return fmt.Errorf("rpc: decode %s stream item: %w", r.method, err)
		}
	}
	return nil
}

// Close abandons the stream.
func (r *StreamReader) Close() {
	if !r.done {
		r.done = true
		r.conn.cancel(r.id)
	}
}

package rpc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"reflect"
	"sync"
)

// Handler is a unary method: it decodes its argument from args into a
// value of the registered argument type and returns a reply.
type Handler func(ctx context.Context, arg any) (any, error)

// StreamHandler is a server-streaming method: it may call send any number
// of times before returning. A non-nil return is delivered to the client
// as the stream error.
type StreamHandler func(ctx context.Context, arg any, send func(any) error) error

// method bundles a handler with the concrete argument type used to decode
// incoming payloads, mirroring net/rpc's reflective decoding.
type method struct {
	argType reflect.Type
	unary   Handler
	stream  StreamHandler
}

// Server dispatches multiplexed calls from many connections. The zero
// value is not usable; use NewServer.
type Server struct {
	mu      sync.RWMutex
	methods map[string]*method
	conns   map[net.Conn]struct{}
	ln      net.Listener
	closed  bool
	wg      sync.WaitGroup

	// Intercept, when non-nil, runs before every dispatch; returning an
	// error aborts the call. Used for fault injection and auth checks.
	Intercept func(methodName string) error
}

// NewServer returns an empty Server.
func NewServer() *Server {
	return &Server{
		methods: make(map[string]*method),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Register installs a unary handler. argProto is a value (typically a
// zero struct) whose concrete type incoming arguments are decoded into.
func (s *Server) Register(name string, argProto any, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.methods[name] = &method{argType: reflect.TypeOf(argProto), unary: h}
}

// RegisterStream installs a server-streaming handler.
func (s *Server) RegisterStream(name string, argProto any, h StreamHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.methods[name] = &method{argType: reflect.TypeOf(argProto), stream: h}
}

// Serve accepts connections on ln until the server is closed. It blocks;
// run it on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrConnClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.RLock()
			closed := s.closed
			s.mu.RUnlock()
			if closed {
				return nil
			}
			return fmt.Errorf("rpc: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Listen starts serving on a fresh loopback TCP listener and returns its
// address. It is the common way tests and the in-process platform boot a
// microservice replica.
func (s *Server) Listen() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("rpc: listen: %w", err)
	}
	go s.Serve(ln) //nolint:errcheck // lifetime tied to Close
	return ln.Addr().String(), nil
}

// Close stops the listener, terminates all open connections and waits for
// in-flight handlers to drain. It models a microservice crash/stop: calls
// in flight observe ErrConnClosed and the balancer fails over.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// connState tracks per-connection call cancellation and the reused
// encode buffers.
type connState struct {
	mu     sync.Mutex
	nc     net.Conn
	wbuf   []byte // reused frame-encode buffer, guarded by mu
	body   []byte // reused body-encode buffer, guarded by mu
	cancel map[uint64]context.CancelFunc
}

// send encodes f into the reused frame buffer and writes it in one
// syscall.
func (cs *connState) send(f *frame) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.wbuf = appendFrame(cs.wbuf[:0], f)
	_, err := cs.nc.Write(cs.wbuf)
	return err
}

// sendData encodes v into the reused body buffer and writes it as the
// data frame of call f — followed, when end is set, by the call's end
// frame in the same write. It returns the encode error or the write
// error.
func (cs *connState) sendData(f *frame, v any, end bool) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var err error
	if cs.body, err = appendBody(cs.body[:0], v); err != nil {
		return fmt.Errorf("rpc: encode %s body: %w", f.Method, err)
	}
	cs.wbuf = appendFrame(cs.wbuf[:0], &frame{Kind: frameData, ID: f.ID, Body: cs.body})
	if end {
		cs.wbuf = appendFrame(cs.wbuf, &frame{Kind: frameEnd, ID: f.ID})
	}
	_, err = cs.nc.Write(cs.wbuf)
	return err
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	cs := &connState{nc: conn, cancel: make(map[uint64]context.CancelFunc)}
	var wg sync.WaitGroup
	defer wg.Wait()
	// The frame struct is reused across reads; dispatch goroutines take
	// a copy (Body is freshly allocated per frame, so copies never
	// alias each other).
	var f frame
	for {
		if err := readFrame(br, &f); err != nil {
			// Connection closed or corrupted: cancel outstanding calls.
			cs.mu.Lock()
			for _, cancel := range cs.cancel {
				cancel()
			}
			cs.mu.Unlock()
			return
		}
		switch f.Kind {
		case frameCall:
			ctx, cancel := context.WithCancel(context.Background())
			cs.mu.Lock()
			cs.cancel[f.ID] = cancel
			cs.mu.Unlock()
			wg.Add(1)
			go func(f frame) {
				defer wg.Done()
				s.dispatch(ctx, cs, &f)
				cancel()
				cs.mu.Lock()
				delete(cs.cancel, f.ID)
				cs.mu.Unlock()
			}(f)
		case frameCancel:
			cs.mu.Lock()
			if cancel, ok := cs.cancel[f.ID]; ok {
				cancel()
			}
			cs.mu.Unlock()
		default:
			// Ignore unexpected frames; a well-behaved client never sends
			// them, and dropping beats tearing down a shared connection.
		}
	}
}

func (s *Server) dispatch(ctx context.Context, cs *connState, f *frame) {
	fail := func(err error) {
		cs.send(&frame{Kind: frameError, ID: f.ID, Err: err.Error()}) //nolint:errcheck
	}
	s.mu.RLock()
	m := s.methods[f.Method]
	intercept := s.Intercept
	s.mu.RUnlock()
	if m == nil {
		fail(fmt.Errorf("%w: %s", ErrMethodNotFound, f.Method))
		return
	}
	if intercept != nil {
		if err := intercept(f.Method); err != nil {
			fail(err)
			return
		}
	}
	arg, err := decodeAs(m.argType, f.Body)
	if err != nil {
		fail(fmt.Errorf("rpc: decode %s argument: %w", f.Method, err))
		return
	}
	if m.unary != nil {
		reply, err := m.unary(ctx, arg)
		if err == nil {
			err = cs.sendData(f, reply, true)
		}
		if err != nil {
			// After a write error this send fails too, harmlessly: the
			// read loop is already seeing the connection go down.
			fail(err)
		}
		return
	}
	send := func(msg any) error {
		if err := ctx.Err(); err != nil {
			return ErrCanceled
		}
		return cs.sendData(f, msg, false)
	}
	if err := m.stream(ctx, arg, send); err != nil {
		fail(err)
		return
	}
	cs.send(&frame{Kind: frameEnd, ID: f.ID}) //nolint:errcheck
}

// decodeAs decodes body into a fresh value of type t and returns it as
// registered: a pointer for a pointer type, else the value. An empty
// body (a nil argument) decodes to the zero value.
func decodeAs(t reflect.Type, body []byte) (any, error) {
	ptr := t.Kind() == reflect.Pointer
	base := t
	if ptr {
		base = t.Elem()
	}
	v := reflect.New(base)
	if len(body) > 0 {
		if err := decodeBody(v.Interface(), body); err != nil {
			return nil, err
		}
	}
	if ptr {
		return v.Interface(), nil
	}
	return v.Elem().Interface(), nil
}

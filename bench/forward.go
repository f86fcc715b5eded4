package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// forwarder is a byte-counting TCP relay on the loopback interface.  In the
// traced run the workers dial it instead of the leader; it relays every
// byte unchanged and counts them per direction, which gives the wire
// volume per task without touching the cluster package.
type forwarder struct {
	target string
	ln     net.Listener
	// toWorkers counts leader-to-worker bytes (formula, tasks, aborts),
	// toLeader worker-to-leader bytes (results, heartbeat replies).
	toWorkers, toLeader atomic.Int64

	mu     sync.Mutex
	conns  []net.Conn // guarded by mu
	closed bool       // guarded by mu
	relays sync.WaitGroup
}

// start listens on a free loopback port and relays every accepted
// connection to target.
func (f *forwarder) start(target string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("forwarder: %w", err)
	}
	f.target, f.ln = target, ln
	f.relays.Add(1)
	go f.accept()
	return nil
}

func (f *forwarder) addr() string { return f.ln.Addr().String() }

func (f *forwarder) accept() {
	defer f.relays.Done()
	for {
		down, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.Dial("tcp", f.target)
		if err != nil {
			down.Close()
			continue
		}
		if !f.track(down, up) {
			return
		}
		f.relays.Add(2)
		go f.relay(up, down, &f.toLeader)
		go f.relay(down, up, &f.toWorkers)
	}
}

// track remembers the pair for close; it refuses them once closed.
func (f *forwarder) track(down, up net.Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		down.Close()
		up.Close()
		return false
	}
	f.conns = append(f.conns, down, up)
	return true
}

// relay copies src to dst until either side closes, then closes both so the
// opposite relay ends too.
func (f *forwarder) relay(dst, src net.Conn, count *atomic.Int64) {
	defer f.relays.Done()
	_, _ = io.Copy(countingWriter{dst, count}, src) // ends with the connection
	dst.Close()
	src.Close()
}

// close stops the relay and returns once its goroutines have exited.
func (f *forwarder) close() {
	f.mu.Lock()
	f.closed = true
	conns := f.conns
	f.mu.Unlock()
	f.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	f.relays.Wait()
}

type countingWriter struct {
	w     io.Writer
	count *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.count.Add(int64(n))
	return n, err
}

package main

import (
	"net/http"
	"testing"
)

// TestServeHTTPServerLimits: the -serve server bounds how long a silent peer
// may hold a connection, and leaves responses unbounded for the event
// streams.
func TestServeHTTPServerLimits(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != h {
		t.Fatalf("address or handler not passed through: %+v", srv)
	}
	if srv.ReadHeaderTimeout != serveReadHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != serveIdleTimeout || srv.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut event streams short", srv.WriteTimeout)
	}
}

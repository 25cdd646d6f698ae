package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"time"
)

// system is a real server.Handler on a loopback listener in this
// process, plus the one closed-loop client that drives it: a single
// keep-alive connection, the next request sent only after the previous
// reply was read in full. nproc is 2, so one client and the server are
// all the machine carries without the scheduler becoming the workload.
type system struct {
	base   string
	client *http.Client
	hs     *http.Server
	served chan error

	// seq folds every request (method, path, body digest) in issue
	// order: two runs with the same seed must end on the same value.
	seq hash.Hash64
	// respBytes counts response body bytes read.
	respBytes int64
	// rec receives one client span per request while tracing; nil
	// otherwise.
	rec *recorder
}

func startSystem(h http.Handler) (*system, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &system{
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
				DisableCompression: true,
			},
		},
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		seq:    fnv.New64a(),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its accept loop to return.
func (s *system) stop() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
}

// call issues one request and returns the response body. Anything but a
// 200 is an error: refused, shed and failed requests all count as
// failed ops. label names the client span (the route, not the path).
func (s *system) call(label, method, path string, body payload) ([]byte, http.Header, error) {
	s.seq.Write([]byte(method))
	s.seq.Write([]byte(path))
	var d [8]byte
	binary.LittleEndian.PutUint64(d[:], body.digest)
	s.seq.Write(d[:])

	span := s.rec.start("client "+label, layerClient)
	defer s.rec.end(span)
	var rd io.Reader
	if body.body != nil {
		rd = bytes.NewReader(body.body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	s.respBytes += int64(len(b))
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, b)
	}
	return b, resp.Header, nil
}

func (s *system) get(label, path string) ([]byte, error) {
	b, _, err := s.call(label, http.MethodGet, path, payload{})
	return b, err
}

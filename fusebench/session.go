package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/linalg"
	"resilientfusion/internal/service"
)

// session is one booted service: an in-process pool served on a
// loopback listener, and the client that drives it. The pool takes
// fusiond's flag defaults for this host (workers = linalg.MaxWorkers(),
// concurrency = workers/2, queue 64, cache 128, 512 MiB scenes) unless
// the workload is durable.
type session struct {
	r      *runner
	dir    string // spool, journal and probe files; removed by close
	pool   *service.Pool
	srv    *http.Server
	base   string
	client *fusionclient.Client
	hc     *http.Client
	served chan error
	state  any // workload-private state (live scenes, ...)
}

// Durable-scene pool sizing: a one-entry RAM cache is smaller than the
// cycle's three-result working set, so every re-fuse is served from the
// spill tier; 64 MiB of spill holds every result a run produces.
const (
	durableCacheEntries = 1
	durableSpillBytes   = 64 << 20
)

func (r *runner) boot(rep int) (*session, error) {
	dir := filepath.Join(r.tmp, fmt.Sprintf("session-%d", rep))
	s := &session{r: r, dir: dir, served: make(chan error, 1)}
	workers := linalg.MaxWorkers()
	cfg := service.Config{
		Workers:       workers,
		MaxConcurrent: max(1, workers/2),
		QueueDepth:    64,
		CacheEntries:  128,
		SpoolDir:      filepath.Join(dir, "spool"),
		MaxSceneBytes: 512 << 20,
		MaxScenes:     64,
		MaxLongPoll:   60 * time.Second,
	}
	if r.cfg.workload.durable {
		cfg.JournalDir = filepath.Join(dir, "journal")
		cfg.CacheEntries = durableCacheEntries
		cfg.CacheSpillBytes = durableSpillBytes
	}
	if err := os.MkdirAll(filepath.Join(dir, "probe"), 0o755); err != nil {
		return nil, err
	}
	pool, err := service.NewPool(cfg)
	if err != nil {
		return nil, fmt.Errorf("new pool: %w", err)
	}
	s.pool = pool
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return nil, err
	}
	s.srv = &http.Server{Handler: pool.Handler()}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	clients := r.cfg.workload.clients
	s.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
	}}
	s.client = fusionclient.New(s.base, fusionclient.WithHTTPClient(s.hc))
	return s, nil
}

// close stops the listener and the pool, waits for the server goroutine
// and removes the session's files.
func (s *session) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.hc.CloseIdleConnections()
	if perr := s.pool.Close(); err == nil {
		err = perr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynasym/internal/service"
)

// Cache sizes of both nodes. A synthetic cell's metrics carry one entry
// per DAG layer, so cached cells are large; these bounds keep the
// process small while holding a warm-overlap grid many times over.
const (
	jobCacheSize  = 4
	cellCacheSize = 128
)

// cluster is the system under test: an asymd coordinator and one worker
// peer, both in this process, each a service.Manager behind
// Manager.Handler on its own loopback listener.
type cluster struct {
	coord, worker   *service.Manager
	coordURL        string
	workerURL       string
	coordW, workerW int // local pool sizes
	workerBytes     *countingListener
	servers         []*http.Server
	serving         sync.WaitGroup
	client          *http.Client
}

// shutdownDeadline bounds how long close waits for in-flight work.
const shutdownDeadline = 30 * time.Second

// poolSizes splits nproc worker threads between the coordinator's and the
// worker's local pools (one each at least).
func poolSizes(nproc int) (coord, worker int) {
	coord = max(1, nproc/2)
	return coord, max(1, nproc-coord)
}

// startCluster starts both nodes. traced turns on service job tracing;
// the untraced cluster runs with it off (TraceRetention < 0).
func startCluster(traced bool) (*cluster, error) {
	retention := -1
	if traced {
		retention = 16
	}
	c := &cluster{
		// One connection: the client is a single closed loop.
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	c.coordW, c.workerW = poolSizes(runtime.NumCPU())

	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen for worker: %w", err)
	}
	c.workerBytes = &countingListener{Listener: wl}
	c.workerURL = "http://" + wl.Addr().String()
	c.worker = service.NewManager(service.Config{
		Workers: c.workerW, CacheSize: jobCacheSize, CellCacheSize: cellCacheSize,
		TraceRetention: retention,
	})
	c.serve(c.workerBytes, c.worker)

	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(fmt.Errorf("listen for coordinator: %w", err), c.close())
	}
	c.coordURL = "http://" + cl.Addr().String()
	c.coord = service.NewManager(service.Config{
		Workers: c.coordW, CacheSize: jobCacheSize, CellCacheSize: cellCacheSize,
		Peers: []string{c.workerURL}, TraceRetention: retention,
	})
	c.serve(cl, c.coord)
	return c, nil
}

func (c *cluster) serve(l net.Listener, m *service.Manager) {
	srv := &http.Server{Handler: m.Handler(slog.New(slog.NewTextHandler(io.Discard, nil)))}
	c.servers = append(c.servers, srv)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		_ = srv.Serve(l) // returns http.ErrServerClosed once close shuts it down
	}()
}

// close stops both nodes and waits for their servers to return.
func (c *cluster) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownDeadline)
	defer cancel()
	var errs []error
	// Coordinator first: it is the worker's only client.
	for i := len(c.servers) - 1; i >= 0; i-- {
		errs = append(errs, c.servers[i].Shutdown(ctx))
	}
	for _, m := range []*service.Manager{c.coord, c.worker} {
		if m != nil {
			errs = append(errs, m.Shutdown(ctx))
		}
	}
	c.client.CloseIdleConnections()
	c.serving.Wait()
	return errors.Join(errs...)
}

// metrics scrapes GET /metrics of the node at base.
func (c *cluster) metrics(base string) (promSums, error) {
	resp, err := c.client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// snapshot is both nodes' /metrics plus the bytes the worker's listener
// has carried just before and just after the scrape. The worker's scrape
// goes through the counted listener; shard traffic between two snapshots
// a and b is b.bytesBefore - a.bytesAfter.
type snapshot struct {
	coord, worker           promSums
	bytesBefore, bytesAfter int64
}

func (c *cluster) snapshot() (snapshot, error) {
	s := snapshot{bytesBefore: c.workerBytes.n.Load()}
	var err error
	if s.coord, err = c.metrics(c.coordURL); err != nil {
		return s, err
	}
	if s.worker, err = c.metrics(c.workerURL); err != nil {
		return s, err
	}
	s.bytesAfter = c.workerBytes.n.Load()
	return s, nil
}

// promSums maps a metric name to the sum of its series over all labels.
type promSums map[string]float64

// parseProm parses Prometheus text exposition into per-name sums.
func parseProm(r io.Reader) (promSums, error) {
	out := promSums{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// countingListener counts the bytes read and written on every connection
// it accepts.
type countingListener struct {
	net.Listener
	n atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, n: &l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

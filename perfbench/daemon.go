package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"interpose/internal/apps"
	"interpose/internal/kernel"
	"interpose/internal/world"
	"interpose/internal/worldd"
)

// conns is the client's connection ceiling: the benchmark machine has
// two CPUs, and the client shares them with the daemon.
const conns = 2

// fixtures are the Setup hooks every tenant boots with: the paper's
// make-8-programs tree under /src and the dissertation under /doc.
var fixtures = []func(*kernel.Kernel) error{
	func(k *kernel.Kernel) error { return apps.GenMakeTree(k, "/src", 8) },
	func(k *kernel.Kernel) error {
		_, err := apps.GenDissertation(k, "/doc", 8, 4, 6)
		return err
	},
}

// daemon is worldd served the way cmd/worldd serves it — default
// Config, so the health watchdog and the MaxInflight gate are on — on a
// unix socket, behind the benchmark's own http.Server so that a traced
// run can wrap the handler.
type daemon struct {
	srv  *worldd.Server
	hs   *http.Server
	sock string
	done chan error
}

func startDaemon(sock string, rec *recorder) (*daemon, error) {
	srv, err := worldd.New(worldd.Config{Register: apps.Register, Setup: fixtures})
	if err != nil {
		return nil, err
	}
	ln, err := worldd.ListenUnix(sock)
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if rec != nil {
		h = rec.middleware(h)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, sock: sock, done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the socket, then the daemon (every world and pool closed),
// and waits for the serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	os.Remove(d.sock)
	return err
}

// requestIDHeader carries the client's request ID to the handler span.
const requestIDHeader = "X-Request-Id"

// client talks to the daemon over its unix socket with at most conns
// connections, and records a client span per request while its
// recorder is on.
type client struct {
	hc        *http.Client
	tr        *http.Transport
	rec       *recorder
	status5xx atomic.Uint64
}

func newClient(sock string, rec *recorder) *client {
	tr := &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			return (&net.Dialer{}).DialContext(ctx, "unix", sock)
		},
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, rec: rec}
}

// do sends one request and decodes a 2xx JSON body into out (if non-nil).
// kind names the client span.
func (c *client) do(kind, method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, "http://worldd"+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	id, tracing := c.rec.nextID()
	if tracing {
		req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if resp.StatusCode >= 500 {
		c.status5xx.Add(1)
	}
	if err == nil && resp.StatusCode >= 300 {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err == nil && out != nil {
		err = json.Unmarshal(data, out)
	}
	if tracing {
		sp := c.rec.span(id, "client."+kind, start, end)
		sp.Status = resp.StatusCode
		if r, ok := out.(*world.ExecResult); ok && err == nil {
			sp.Elapsed = int64(r.Elapsed)
		}
		c.rec.add(sp)
	}
	return err
}

// create makes a tenant from a wire spec and returns its ID.
func (c *client) create(spec world.Spec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	kind := "create.boot"
	if spec.Pool > 0 {
		kind = "create.pooled"
	}
	var info worldd.Info
	if err := c.do(kind, "POST", "/1.0/worlds", body, &info); err != nil {
		return "", err
	}
	return info.ID, nil
}

// exec runs one session; body is a marshalled world.ExecRequest.
func (c *client) exec(id string, body []byte) (world.ExecResult, error) {
	var res world.ExecResult
	err := c.do("exec", "POST", "/1.0/worlds/"+id+"/exec", body, &res)
	return res, err
}

func (c *client) remove(id string) error {
	return c.do("delete", "DELETE", "/1.0/worlds/"+id, nil, nil)
}

func (c *client) metrics() (worldd.Metrics, error) {
	var m worldd.Metrics
	err := c.do("metrics", "GET", "/1.0/metrics", nil, &m)
	return m, err
}

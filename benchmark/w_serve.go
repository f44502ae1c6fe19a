package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"
)

const (
	serveClients      = 2  // closed-loop clients, one keep-alive socket each
	opsPerSession     = 50 // send+recv pairs between create and delete
	sessionsPerSeg    = 20 // per client per segment
	serveReadyLimit   = 10 * time.Second
	serveWarmSessions = 4 // per client, in the set-up
)

// buildDir is where the harness keeps what it builds, inside the checkout.
func buildDir(root string) string { return filepath.Join(root, ".bench_build", "bin") }

// buildServe builds the real reo-serve binary from the checkout's source
// and returns its path and the build time (harness.build_s; not part of
// any workload's set-up).
func buildServe(root string) (string, time.Duration, error) {
	bin := filepath.Join(buildDir(root), "reo-serve")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/reo-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building reo-serve: %v\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// served is a running reo-serve child.
type served struct {
	cmd  *exec.Cmd
	base string
}

// spawnServe starts the binary on a free loopback port and waits until it
// answers.
func spawnServe(bin string) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &served{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(serveReadyLimit)
	for {
		resp, err := http.Get(s.base + "/v1/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("reo-serve on %s not ready after %v: %v", addr, serveReadyLimit, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop kills the child and waits until it has ended.
func (s *served) stop() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// serveClient is one closed-loop HTTP client with its single keep-alive
// connection.
type serveClient struct {
	base string
	hc   *http.Client
	tr   *tracer
	body bytes.Buffer
}

func newServeClient(base string, tr *tracer) *serveClient {
	return &serveClient{base: base, tr: tr, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

// call performs one request as a span and decodes a JSON reply into out
// when given.
func (c *serveClient) call(parent int, span, method, path string, in, out any, wantStatus int) error {
	var body io.Reader
	if in != nil {
		c.body.Reset()
		if err := json.NewEncoder(&c.body).Encode(in); err != nil {
			return err
		}
		body = &c.body
	}
	id := c.tr.begin(parent, span, "")
	defer c.tr.end(id)
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s %s: status %s", method, path, resp.Status)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return err
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

type valueMsg struct {
	Value any `json:"value"`
}

// session runs create -> opsPerSession x (send, recv, echo check) -> delete
// and returns the pair latencies (µs) and the number of wrong echoes. A
// request that fails fails every operation the session still had to do.
func (c *serveClient) session(parent int, base int, f *fault, lat []float64) ([]float64, int64, error) {
	id := c.tr.begin(parent, "harness.session", "")
	defer c.tr.end(id)
	var created struct {
		ID string `json:"id"`
	}
	if err := c.call(id, "serve.create", http.MethodPost, "/v1/sessions", nil, &created, http.StatusOK); err != nil {
		return lat, opsPerSession, err
	}
	path := "/v1/sessions/" + created.ID
	var bad int64
	for i := 0; i < opsPerSession; i++ {
		v := base + i
		t0 := time.Now()
		if err := c.call(id, "serve.send", http.MethodPost, path+"/send", valueMsg{v}, nil, http.StatusNoContent); err != nil {
			return lat, bad + int64(opsPerSession-i), err
		}
		var got valueMsg
		if err := c.call(id, "serve.recv", http.MethodPost, path+"/recv", nil, &got, http.StatusOK); err != nil {
			return lat, bad + int64(opsPerSession-i), err
		}
		lat = append(lat, float64(time.Since(t0))/1e3)
		// JSON carries numbers as float64.
		if f.tap(got.Value) != float64(v) {
			bad++
		}
	}
	return lat, bad, c.call(id, "serve.delete", http.MethodDelete, path, nil, nil, http.StatusNoContent)
}

// serveSegment runs sessions sessions on each client concurrently and
// returns the segment's items/s and pair latencies.
func serveSegment(r *run, clients []*serveClient, parent, seg, sessions int) (rate float64, lat []float64, err error) {
	var wg sync.WaitGroup
	lats := make([][]float64, len(clients))
	errs := make([]error, len(clients))
	t0 := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *serveClient) {
			defer wg.Done()
			for s := 0; s < sessions; s++ {
				base := int(r.seed&0xff)<<24 + ci<<20 + (seg*sessionsPerSeg+s)%(1<<12)<<8
				var bad int64
				lats[ci], bad, errs[ci] = c.session(parent, base, r.fault, lats[ci])
				if errs[ci] != nil {
					r.count(opsPerSession, bad, "serve-sessions: "+errs[ci].Error())
					return
				}
				r.count(opsPerSession, bad, "serve-sessions: echo differs from the value sent")
			}
		}(ci, c)
	}
	wg.Wait()
	el := time.Since(t0)
	items := 0
	for ci := range clients {
		items += len(lats[ci])
		lat = append(lat, lats[ci]...)
		if errs[ci] != nil {
			err = errs[ci]
		}
	}
	return float64(items) / el.Seconds(), lat, err
}

func runServe(r *run) error {
	bin, _, err := buildServe(r.root)
	if err != nil {
		return err
	}
	// Set-up: spawn to ready, then the warm-up sessions of each client,
	// which open the keep-alive sockets and seed the server's instance pool.
	type serving struct {
		srv     *served
		clients []*serveClient
	}
	stop := func(s serving) {
		for _, c := range s.clients {
			c.hc.CloseIdleConnections()
		}
		s.srv.stop()
	}
	sv, err := repeatSetup(r, func() (serving, error) {
		srv, err := spawnServe(bin)
		if err != nil {
			return serving{}, err
		}
		s := serving{srv: srv}
		for i := 0; i < serveClients; i++ {
			s.clients = append(s.clients, newServeClient(srv.base, r.tr))
		}
		if _, _, err := serveSegment(r, s.clients, -1, 0, serveWarmSessions); err != nil {
			stop(s)
			return serving{}, fmt.Errorf("warm-up: %w", err)
		}
		return s, nil
	}, stop)
	if err != nil {
		return err
	}
	defer stop(sv)
	srv, clients := sv.srv, sv.clients

	root := r.tr.begin(-1, "harness.throughput", r.workload)
	var rates []float64
	var segs [][]float64
	err = r.untilBudget(r.budget, func(i int) error {
		rate, lat, err := serveSegment(r, clients, root, i+1, sessionsPerSeg)
		rates = append(rates, rate)
		segs = append(segs, lat)
		return err
	})
	r.tr.end(root)
	if err != nil {
		return fmt.Errorf("serve-sessions: %w", err)
	}
	r.report("items_per_s", rates)
	r.report("ops_per_s", rates)
	r.latencySummary(segs)
	mb, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	r.report("peak_rss_mb", []float64{mb})
	return nil
}

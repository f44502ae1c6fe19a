// Command reo-serve is the multi-instance serving harness: an HTTP
// front door where every session is one connector instance multiplexed
// onto the shared process runtime (reo.WithRuntime) and recycled
// through the template pool on close (reo.WithReuse). It demonstrates
// the PR's serving story end to end: session churn costs a pool pop
// and a reset instead of a coordinator build, and any number of live
// sessions share one GOMAXPROCS-sized worker pool.
//
// Serve mode (default):
//
//	reo-serve [-addr :8080]
//
//	POST   /v1/sessions               -> {"id": "..."}        create a session
//	POST   /v1/sessions/{id}/send     {"value": v}            write into the session's lane
//	POST   /v1/sessions/{id}/recv     -> {"value": v}         read from the session's lane
//	DELETE /v1/sessions/{id}                                  close (recycles the instance)
//	GET    /v1/stats                  -> live/created/closed counts, runtime workers and scheduling counters
//	                                     (passes run by the workers as Local/Injected/Stolen and by tasks as Caller, worker parks)
//
// Load mode (self-driving loopback client over real HTTP):
//
//	reo-serve -load [-sessions N] [-ops M] [-clients C]
//
// reports ops/s, p50/p99 op latency, and allocs/op (whole-process
// malloc delta across the run, HTTP machinery included). -smoke runs a
// small echo-validating load and exits non-zero on any mismatch — the
// CI front-door check.
//
// The transport is plain request/response HTTP on the standard
// library; a streaming front door (WebSocket or SSE per session) is
// out of scope here because it needs a protocol implementation the
// stdlib does not ship.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	reo "repro"
)

// sessionSrc is the per-session protocol: one buffered lane (two
// synchronous regions joined by a link — the smallest shape that
// exercises the shared scheduler). Swap in any compiled connector to
// serve a richer protocol.
const sessionSrc = `Session(a;b) = Fifo1(a;b)`

type server struct {
	conn *reo.Connector

	mu       sync.RWMutex
	sessions map[string]*session
	nextID   atomic.Uint64
	created  atomic.Int64
	closed   atomic.Int64
}

type session struct {
	inst *reo.Instance
	out  reo.Outport
	in   reo.Inport
}

func newServer() (*server, error) {
	prog, err := reo.Compile(sessionSrc)
	if err != nil {
		return nil, err
	}
	conn, err := prog.Connector("Session")
	if err != nil {
		return nil, err
	}
	return &server{conn: conn, sessions: make(map[string]*session)}, nil
}

func (s *server) create() (string, error) {
	inst, err := s.conn.Connect(nil,
		reo.WithPartitioning(reo.PartitionRegions),
		reo.WithRuntime(nil), // the shared process runtime
		reo.WithReuse(true),  // recycle the instance on close
	)
	if err != nil {
		return "", err
	}
	id := strconv.FormatUint(s.nextID.Add(1), 10)
	s.mu.Lock()
	s.sessions[id] = &session{inst: inst, out: inst.Outport("a"), in: inst.Inport("b")}
	s.mu.Unlock()
	s.created.Add(1)
	return id, nil
}

func (s *server) get(id string) *session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[id]
}

func (s *server) drop(id string) error {
	s.mu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if sess == nil {
		return errors.New("no such session")
	}
	s.closed.Add(1)
	return sess.inst.Close()
}

type valueMsg struct {
	Value any `json:"value"`
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		id, err := s.create()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]string{"id": id})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/send", func(w http.ResponseWriter, r *http.Request) {
		sess := s.get(r.PathValue("id"))
		if sess == nil {
			http.Error(w, "no such session", http.StatusNotFound)
			return
		}
		var msg valueMsg
		if err := json.NewDecoder(r.Body).Decode(&msg); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := sess.out.Send(msg.Value); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/recv", func(w http.ResponseWriter, r *http.Request) {
		sess := s.get(r.PathValue("id"))
		if sess == nil {
			http.Error(w, "no such session", http.StatusNotFound)
			return
		}
		v, err := sess.in.Recv()
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, valueMsg{Value: v})
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.drop(r.PathValue("id")); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.RLock()
		live := len(s.sessions)
		s.mu.RUnlock()
		writeJSON(w, map[string]any{
			"live":    live,
			"created": s.created.Load(),
			"closed":  s.closed.Load(),
			"workers": reo.DefaultRuntime().Workers(),
			"runtime": reo.DefaultRuntime().Stats(),
		})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address (serve mode)")
	load := flag.Bool("load", false, "run the loopback load harness instead of serving")
	smoke := flag.Bool("smoke", false, "short echo-validating load run (implies -load); non-zero exit on mismatch")
	sessions := flag.Int("sessions", 200, "sessions the load harness churns through")
	ops := flag.Int("ops", 50, "send+recv op pairs per session")
	clients := flag.Int("clients", 4, "concurrent load-harness clients")
	flag.Parse()

	srv, err := newServer()
	if err != nil {
		fatal(err)
	}
	if *smoke {
		*load = true
		*sessions, *ops, *clients = 16, 8, 2
	}
	if *load {
		if err := runLoad(srv, *sessions, *ops, *clients, *smoke); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("reo-serve: listening on %s (%d runtime workers)\n", *addr, reo.DefaultRuntime().Workers())
	fatal(http.ListenAndServe(*addr, srv.handler()))
}

// runLoad serves on a loopback listener and drives it with `clients`
// concurrent clients, each churning sessions: create, ops × (send one
// value, recv it back, optionally validate the echo), delete.
func runLoad(srv *server, sessions, ops, clients int, validate bool) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	if clients < 1 {
		clients = 1
	}
	if clients > sessions {
		clients = sessions
	}
	perClient := sessions / clients

	var memBefore, memAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&memBefore)

	type clientResult struct {
		durations []time.Duration
		err       error
	}
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.durations = make([]time.Duration, 0, perClient*ops)
			for s := 0; s < perClient; s++ {
				id, err := createSession(base)
				if err != nil {
					res.err = err
					return
				}
				for o := 0; o < ops; o++ {
					v := c*1_000_000 + s*1_000 + o
					t0 := time.Now()
					got, err := sendRecv(base, id, v)
					res.durations = append(res.durations, time.Since(t0))
					if err != nil {
						res.err = err
						return
					}
					// JSON round-trips numbers as float64.
					if validate && got != float64(v) {
						res.err = fmt.Errorf("echo mismatch: sent %d, got %v", v, got)
						return
					}
				}
				if err := deleteSession(base, id); err != nil {
					res.err = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&memAfter)

	var durations []time.Duration
	for _, res := range results {
		if res.err != nil {
			return res.err
		}
		durations = append(durations, res.durations...)
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	totalOps := len(durations)
	if totalOps == 0 {
		return errors.New("load run performed no operations")
	}
	allocs := float64(memAfter.Mallocs-memBefore.Mallocs) / float64(totalOps)
	fmt.Printf("reo-serve load: %d sessions x %d ops, %d clients, %d runtime workers\n",
		clients*perClient, ops, clients, reo.DefaultRuntime().Workers())
	fmt.Printf("  ops/s:      %.0f (%d ops in %v)\n", float64(totalOps)/elapsed.Seconds(), totalOps, elapsed.Round(time.Millisecond))
	fmt.Printf("  latency:    p50 %v  p99 %v\n",
		durations[totalOps/2].Round(time.Microsecond),
		durations[totalOps*99/100].Round(time.Microsecond))
	fmt.Printf("  allocs/op:  %.1f (whole process, HTTP included)\n", allocs)
	if validate {
		fmt.Println("reo-serve smoke: OK — all echoes matched")
	}
	return nil
}

func createSession(base string) (string, error) {
	resp, err := http.Post(base+"/v1/sessions", "application/json", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("create: status %s", resp.Status)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out.ID, nil
}

func sendRecv(base, id string, v int) (any, error) {
	body, _ := json.Marshal(valueMsg{Value: v})
	resp, err := http.Post(base+"/v1/sessions/"+id+"/send", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return nil, fmt.Errorf("send: status %s", resp.Status)
	}
	resp, err = http.Post(base+"/v1/sessions/"+id+"/recv", "application/json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("recv: status %s", resp.Status)
	}
	var out valueMsg
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Value, nil
}

func deleteSession(base, id string) error {
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("delete: status %s", resp.Status)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reo-serve:", err)
	os.Exit(1)
}

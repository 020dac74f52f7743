// Package worldd is the multi-tenant world server: one process hosting
// many independent simulated machines (internal/world) behind a
// unix-socket HTTP/JSON API, in the shape of a machine-container daemon:
//
//	POST   /1.0/worlds           create a world from a wire world.Spec
//	GET    /1.0/worlds           list worlds
//	GET    /1.0/worlds/{id}      inspect one world
//	POST   /1.0/worlds/{id}/exec run one session (world.ExecRequest)
//	DELETE /1.0/worlds/{id}      close and remove a world
//	GET    /1.0/metrics          fleet-wide aggregated telemetry
//
// Each tenant's Spec carries its own budgets — rlimits applied to every
// process the world launches, circuit-breaker thresholds for its agent
// stack, an optional private journal — and the world layer enforces
// them, so one tenant exhausting its descriptor budget or quarantining
// its agents cannot perturb a sibling. Host paths never cross the
// socket: a wire spec's `journal` field is a bare key the server maps
// to a file inside its own state directory (one live world per file,
// enforced by a reservation held until Close), and `restore` is refused
// outright, so no tenant can make the daemon open, append to, or
// truncate a host file of its choosing.
//
// # Boot once per daemon
//
// New boots one bare base world from Config.Register and Config.Setup —
// the only boot the server runs. Every world it hosts is a copy-on-reach
// fork of that base (world.Fork). The base never changes after Setup, so
// its tree freezes once, on the first fork, into an image every tenant
// shares; a create is an empty overlay on that image plus the spec's own
// facilities (journal with replay, fsck gate, telemetry, tracer,
// injector, supervisor, agents), never a rebuild of the image set and
// fixtures, and a recovery rebuild is the same fork with the tenant's
// journal replayed onto it. A fork costs the same whatever the base
// holds, so nothing is pre-forked: a wire spec's `pool` field is
// accepted and ignored. Every hosted world is an ordinary, fully
// isolated tenant — it clones an inode the first time it reaches it, so
// a write in one never appears in a sibling or in the base — and is
// closed, not recycled, on DELETE.
// Idle worlds run zero goroutines; the per-world cost is the inodes the
// tenant has reached (file data stays shared with the base until
// written) plus whatever facilities the spec opted into (telemetry
// registries carry latency histograms and a flight ring, so
// memory-conscious fleets leave Telemetry off and rely on the server's
// own session counters).
//
// # Lock ordering
//
// Server.mu guards only the world table (id → entry) and the draining
// flag. Every world operation — Fork, Exec, Close — runs OUTSIDE
// Server.mu: handlers look the entry up under the lock, release it, and
// then call into the world, which serializes its own sessions on its
// own lock. Server.mu is therefore never held while a world lock is,
// and a slow session in one world never delays another tenant's create
// or delete. Deleting a world that is mid-session is safe for the same
// reason: Close blocks on the world lock until the session finishes,
// and a later Exec on the closed world fails cleanly.
package worldd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"interpose/internal/image"
	"interpose/internal/kernel"
	"interpose/internal/telemetry"
	"interpose/internal/world"
)

// Config wires the server to its base world: the host-side hooks a wire
// Spec cannot carry.
type Config struct {
	// Register populates the base world's image registry (required);
	// every hosted world shares it.
	Register func(*image.Registry)
	// Setup hooks run once, on the base world (optional fixtures); every
	// hosted world inherits their output through the base's frozen image.
	Setup []func(*kernel.Kernel) error
	// StateDir is the directory holding tenant journal files. A wire
	// spec's `journal` field is a bare key, not a host path: the server
	// maps it to a file under this directory, so a tenant can never
	// name an arbitrary daemon-writable file. Empty refuses file-backed
	// journals (JournalMem still works).
	StateDir string
	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
	// Health tunes the per-world watchdog and recovery machinery
	// (health.go). The zero value enables it with defaults.
	Health HealthConfig
	// MaxInflight is the global concurrent-exec ceiling: requests past
	// it are shed with 429 before any decode or world work, so overload
	// degrades tenants' latency, never the daemon. 0 selects
	// DefaultMaxInflight; negative disables shedding.
	MaxInflight int
}

// DefaultMaxInflight is the global exec concurrency ceiling when the
// config leaves MaxInflight zero.
const DefaultMaxInflight = 1024

// entry is one hosted world. The session counter is the server's own
// (telemetry is per-spec optional, but "how busy is this tenant" must
// always be answerable). The world pointer is atomic because recovery
// swaps a rebuilt world in while handlers read it lock-free; the
// entry's own mutex serializes only structural transitions — recovery
// rebuild vs DELETE vs Shutdown — and is never taken under Server.mu.
type entry struct {
	ID      string
	Name    string
	Created time.Time

	mu   sync.Mutex // serializes rebuild / delete / shutdown
	gone bool       // set by DELETE and Shutdown; recovery stops

	w       atomic.Pointer[world.World]
	spec    world.Spec // sanitized spec, reused by recovery rebuilds
	journal string     // reserved journal host path, "" if none

	sessions atomic.Uint64
	execErrs atomic.Uint64

	// Health state machine (health.go). The session-age pair tracks the
	// time since the last session completion while the world is busy:
	// inflight rises on every exec, and the start stamp resets on each
	// completion, so only a session that stops making progress ages.
	health       atomic.Int32
	reason       atomic.Pointer[string]
	recovering   atomic.Bool
	probing      atomic.Bool
	lastProbeNs  atomic.Int64
	sessInflight atomic.Int64
	sessStartNs  atomic.Int64
	restarts     atomic.Uint64
	rebuildNs    atomic.Int64 // total ns across successful rebuilds
	retryAtNs    atomic.Int64 // next recovery attempt, for Retry-After
	attempts     []time.Time  // recovery attempts in the budget window (guarded by mu)

	admit *admitState // nil when the spec declares no admission budget
}

// Info is the wire representation of one hosted world.
type Info struct {
	ID       string    `json:"id"`
	Name     string    `json:"name,omitempty"`
	Created  time.Time `json:"created"`
	Sessions uint64    `json:"sessions"`
	ExecErrs uint64    `json:"exec_errs,omitempty"`
	Crashed  bool      `json:"crashed,omitempty"`
	// Health is the watchdog's current verdict: healthy, suspect, dead,
	// or parked (health.go).
	Health string `json:"health"`
	// Reason is the latest health transition cause, empty when healthy.
	Reason string `json:"health_reason,omitempty"`
	// Restarts counts successful automatic recoveries.
	Restarts uint64 `json:"restarts,omitempty"`
	// RebuildNs is the mean nanoseconds per successful rebuild (the
	// teardown + fork cost, excluding detection and backoff).
	RebuildNs int64 `json:"rebuild_ns,omitempty"`
}

// PoolInfo is the element type of Metrics.Pools. A shim for the
// benchmark, removed at its next change.
type PoolInfo struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Size   int    `json:"size"`
	Target int    `json:"target"`
}

// Metrics is the fleet-wide view served at /1.0/metrics.
type Metrics struct {
	Worlds   int    `json:"worlds"`
	Created  uint64 `json:"worlds_created"`
	Closed   uint64 `json:"worlds_closed"`
	Sessions uint64 `json:"sessions"`
	ExecErrs uint64 `json:"exec_errs"`
	Draining bool   `json:"draining"`
	// Shed counts execs rejected by the global queue-depth limiter,
	// Throttled those rejected by a tenant's own admission budget.
	Shed      uint64 `json:"shed"`
	Throttled uint64 `json:"throttled"`
	// Deaths/Recoveries/Parks count watchdog verdicts; Probes and
	// ProbeFails count liveness probes (never tenant sessions).
	Deaths     uint64 `json:"deaths"`
	Recoveries uint64 `json:"recoveries"`
	Parks      uint64 `json:"parks"`
	Probes     uint64 `json:"probes"`
	ProbeFails uint64 `json:"probe_fails"`
	// Health counts worlds per current health state.
	Health map[string]int `json:"health"`
	// Pools is one row for the benchmark, which reads a pool hit ratio
	// from it: every create is a fork that boots nothing, so Hits counts
	// creates and the rest stays 0. A shim, removed at the benchmark's
	// next change.
	Pools     []PoolInfo         `json:"pools,omitempty"`
	Telemetry telemetry.Snapshot `json:"telemetry"`
}

// Server hosts the world table. See the package comment for the lock
// ordering discipline.
type Server struct {
	cfg Config
	// base is the bare world New boots from Config.Register and
	// Config.Setup: no agents, journal or telemetry, and it never runs
	// a session. Every hosted world — tenant or recovery rebuild — is a
	// copy-on-reach fork of it. Shutdown closes it after every tenant.
	base *world.World

	mu       sync.Mutex
	worlds   map[string]*entry
	journals map[string]string // journal host path → holding world id
	nextID   uint64
	draining bool

	created  atomic.Uint64
	closed   atomic.Uint64
	sessions atomic.Uint64
	execErrs atomic.Uint64

	// Resilience counters and machinery (health.go).
	deaths     atomic.Uint64
	recoveries atomic.Uint64
	parks      atomic.Uint64
	probes     atomic.Uint64
	probeFails atomic.Uint64
	shed       atomic.Uint64
	throttled  atomic.Uint64

	inflight    atomic.Int64 // concurrent exec handlers, for the shed gate
	maxInflight int64        // 0 = shedding disabled

	rng    atomic.Uint64 // seeded xorshift state for backoff jitter
	wdStop chan struct{}
	wdOnce sync.Once      // closes wdStop exactly once
	wdWG   sync.WaitGroup // the watchdog goroutine
	recWG  sync.WaitGroup // in-flight recovery loops

	httpSrv *http.Server
}

// New builds a server from its config — booting the base world, the
// only boot the server ever runs — and starts the health watchdog
// (unless disabled).
func New(cfg Config) (*Server, error) {
	if cfg.Register == nil {
		return nil, fmt.Errorf("worldd: config has no image registry hook")
	}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("worldd: state dir: %w", err)
		}
	}
	base, err := world.Boot(world.Spec{Name: "base", Register: cfg.Register, Setup: cfg.Setup})
	if err != nil {
		return nil, fmt.Errorf("worldd: base world: %w", err)
	}
	cfg.Health = cfg.Health.withDefaults()
	s := &Server{
		cfg:      cfg,
		base:     base,
		worlds:   make(map[string]*entry),
		journals: make(map[string]string),
		wdStop:   make(chan struct{}),
	}
	switch {
	case cfg.MaxInflight > 0:
		s.maxInflight = int64(cfg.MaxInflight)
	case cfg.MaxInflight == 0:
		s.maxInflight = DefaultMaxInflight
	}
	s.rng.Store(cfg.Health.Seed)
	s.httpSrv = &http.Server{Handler: s.Handler()}
	if !cfg.Health.Disabled {
		s.wdWG.Add(1)
		go s.watchdog()
	}
	return s, nil
}

// isDraining reports the drain flag, briefly under the table lock.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// journalFile maps a wire journal key to a host file under StateDir.
// The key must be a bare file name: anything that could resolve
// elsewhere — separators, "." or "..", an absolute path — is rejected,
// so a tenant can only ever name a file the server dedicated to
// journals.
func (s *Server) journalFile(key string) (string, error) {
	if s.cfg.StateDir == "" {
		return "", fmt.Errorf("no journal storage configured")
	}
	if key != filepath.Base(key) || key == "." || key == ".." || strings.ContainsAny(key, `/\`) {
		return "", fmt.Errorf("key %q is not a bare file name", key)
	}
	return filepath.Join(s.cfg.StateDir, key+".journal"), nil
}

// releaseJournal drops a journal file's reservation. It must run only
// after the holding world's Close (or a failed build): the FileStore has
// the file open — final group commit included — until then, and a new
// world must never append to it concurrently. No-op for the empty path.
func (s *Server) releaseJournal(path string) {
	if path == "" {
		return
	}
	s.mu.Lock()
	delete(s.journals, path)
	s.mu.Unlock()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Handler returns the API mux (exported so tests can drive the server
// without a socket).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /1.0/worlds", s.handleCreate)
	mux.HandleFunc("GET /1.0/worlds", s.handleList)
	mux.HandleFunc("GET /1.0/worlds/{id}", s.handleGet)
	mux.HandleFunc("POST /1.0/worlds/{id}/exec", s.handleExec)
	mux.HandleFunc("DELETE /1.0/worlds/{id}", s.handleDelete)
	mux.HandleFunc("GET /1.0/metrics", s.handleMetrics)
	return mux
}

// Serve accepts connections on ln until Shutdown. It owns ln.
func (s *Server) Serve(ln net.Listener) error {
	err := s.httpSrv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// ListenUnix binds the API socket. The daemon owns its socket path: a
// stale socket file left by a dead predecessor is removed before bind
// (a unix socket never rebinds over an existing file).
func ListenUnix(path string) (net.Listener, error) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("worldd: socket: %w", err)
	}
	return net.Listen("unix", path)
}

// Shutdown drains the server: new creates are refused (503), the
// watchdog and any in-flight recovery loops stop (so no rebuild races
// the teardown), in-flight requests finish, every world is closed
// (sessions run to completion first — Close serializes on the world
// lock). The listener closes before the worlds do, so a supervisor
// watching the socket sees the server gone only after it stopped
// accepting.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	// Stop the health machinery first: the watchdog quits its sweep
	// loop, and recovery loops abort at their next checkpoint (their
	// backoff sleeps select on wdStop, so this is prompt). After the
	// waits, no goroutine will install a fresh world behind our back.
	s.wdOnce.Do(func() { close(s.wdStop) })
	s.wdWG.Wait()
	s.recWG.Wait()

	err := s.httpSrv.Shutdown(ctx)

	s.mu.Lock()
	var victims []*entry
	for _, e := range s.worlds {
		victims = append(victims, e)
	}
	s.worlds = make(map[string]*entry)
	s.mu.Unlock()

	for _, e := range victims {
		e.mu.Lock()
		e.gone = true
		wd := e.w.Load()
		e.mu.Unlock()
		if wd != nil {
			if cerr := wd.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		s.releaseJournal(e.journal)
		s.closed.Add(1)
	}

	// The base goes last: no tenant or recovery loop is left to fork it.
	if cerr := s.base.Close(); cerr != nil && err == nil {
		err = cerr
	}

	s.logf("worldd: drained %d worlds", len(victims))
	return err
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps request bodies: specs and exec requests are small,
// and an unbounded body is an invitation to exhaust the daemon's heap.
const maxBodyBytes = 1 << 20

// decodeJSON decodes one request body strictly: unknown fields are
// rejected (a typoed spec field must not silently no-op) and the body
// is hard-capped at maxBodyBytes.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// retryable writes a 503 with a Retry-After hint: the caller should
// repeat the request — a replacement world is on its way (or, for a
// parked tenant, an operator is needed; retryable is false there).
func retryable(w http.ResponseWriter, afterSecs int64, canRetry bool, format string, args ...any) {
	if afterSecs < 1 {
		afterSecs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", afterSecs))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]any{
		"error":     fmt.Sprintf(format, args...),
		"retryable": canRetry,
	})
}

// deadRetrySecs derives a Retry-After from the recovery loop's next
// scheduled attempt.
func (e *entry) deadRetrySecs() int64 {
	if at := e.retryAtNs.Load(); at > 0 {
		if d := time.Until(time.Unix(0, at)); d > 0 {
			return int64(d.Seconds()) + 1
		}
	}
	return 1
}

// reply writes a JSON success body.
func reply(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec world.Spec
	if err := decodeJSON(w, r, &spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	// The wire spec carries budgets and options; the host-side wiring
	// (the function-valued fields) is json:"-" and never crosses the
	// socket — every world forks the server's base instead. Host paths
	// never cross it either: restores are refused, and the journal
	// field is a key mapped into the server's own state directory.
	if spec.RestorePath != "" {
		httpError(w, http.StatusBadRequest, "restore is not accepted over the wire")
		return
	}
	if a := spec.Admission; a != nil && (a.MaxSessions < 0 || a.Rate < 0 || a.Burst < 0) {
		httpError(w, http.StatusBadRequest, "admission: negative budget")
		return
	}
	jkey, jpath := spec.JournalPath, ""
	if jkey != "" {
		p, err := s.journalFile(jkey)
		if err != nil {
			httpError(w, http.StatusBadRequest, "journal: %v", err)
			return
		}
		jpath = p
		spec.JournalPath = p
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	// One live world per journal file: two FileStores appending to the
	// same host file would interleave frames and corrupt it beyond
	// recovery. The reservation is taken before the build opens the
	// file and held until the holder's Close has closed it.
	if jpath != "" {
		if _, busy := s.journals[jpath]; busy {
			s.mu.Unlock()
			httpError(w, http.StatusConflict, "journal %q in use", jkey)
			return
		}
	}
	s.nextID++
	id := fmt.Sprintf("w%d", s.nextID)
	if jpath != "" {
		s.journals[jpath] = id
	}
	s.mu.Unlock()

	e := &entry{ID: id, Name: spec.Name, journal: jpath, spec: spec,
		admit: newAdmitState(spec.Admission)}
	// Fork outside the table lock: a journal replay can be slow, and
	// siblings must not wait on it. The fork's facility setup replays
	// and fsck-gates the tenant's journal, if any; a recovery rebuild
	// (health.go) is the same fork.
	wd, err := world.Fork(s.base, e.spec)
	if err != nil {
		s.releaseJournal(jpath)
		httpError(w, http.StatusBadRequest, "create: %v", err)
		return
	}
	e.Created = time.Now()
	e.w.Store(wd)
	s.adopt(e, wd)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		wd.Close()
		s.releaseJournal(jpath)
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	s.worlds[id] = e
	s.mu.Unlock()

	s.created.Add(1)
	s.logf("worldd: created %s (%s)", id, spec.Name)
	reply(w, http.StatusCreated, s.info(e))
}

// lookup finds a world entry by id, briefly under the table lock.
func (s *Server) lookup(id string) (*entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.worlds[id]
	return e, ok
}

func (s *Server) info(e *entry) Info {
	in := Info{
		ID:       e.ID,
		Name:     e.Name,
		Created:  e.Created,
		Sessions: e.sessions.Load(),
		ExecErrs: e.execErrs.Load(),
		Health:   healthName(e.health.Load()),
		Reason:   e.healthReason(),
		Restarts: e.restarts.Load(),
	}
	if wd := e.w.Load(); wd != nil {
		in.Crashed = wd.Crashed()
	}
	if n := in.Restarts; n > 0 {
		in.RebuildNs = e.rebuildNs.Load() / int64(n)
	}
	return in
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.worlds))
	for _, e := range s.worlds {
		entries = append(entries, e)
	}
	s.mu.Unlock()

	infos := make([]Info, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, s.info(e))
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Created.Before(infos[j].Created) })
	reply(w, http.StatusOK, infos)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such world")
		return
	}
	reply(w, http.StatusOK, s.info(e))
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such world")
		return
	}

	// Admission, cheapest gate first. The global queue-depth limiter
	// sheds before any decode or world work — overload must cost the
	// daemon nothing but an atomic add and a 429.
	if s.maxInflight > 0 {
		if s.inflight.Add(1) > s.maxInflight {
			s.inflight.Add(-1)
			s.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "server at capacity")
			return
		}
		defer s.inflight.Add(-1)
	}

	switch e.health.Load() {
	case healthDead:
		retryable(w, e.deadRetrySecs(), true, "world %s is recovering", e.ID)
		return
	case healthParked:
		retryable(w, int64(s.cfg.Health.RestartWindow.Seconds()), false,
			"world %s is parked: %s", e.ID, e.healthReason())
		return
	}

	// The tenant's own budget: concurrent-session cap + token bucket.
	if a := e.admit; a != nil {
		ok, reason := a.acquire(time.Now())
		if !ok {
			s.throttled.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "admission: %s", reason)
			return
		}
		defer a.release()
	}

	var req world.ExecRequest
	if err := decodeJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad exec request: %v", err)
		return
	}

	// The session runs outside every server lock; the world serializes
	// its own console. The inflight/start pair feeds the watchdog's
	// session-deadline check: the stamp resets on every completion, so
	// it measures time without progress, not queueing depth.
	wd := e.w.Load()
	e.sessInflight.Add(1)
	e.sessStartNs.CompareAndSwap(0, time.Now().UnixNano())
	res, err := wd.Exec(req)
	if e.sessInflight.Add(-1) == 0 {
		e.sessStartNs.Store(0)
	} else {
		e.sessStartNs.Store(time.Now().UnixNano())
	}
	if err != nil {
		if errors.Is(err, world.ErrDying) || wd.Dying() {
			// The watchdog condemned this world; a replacement is on
			// the way. Fail fast and retryable, not as a tenant error.
			retryable(w, e.deadRetrySecs(), true, "exec: %v", err)
			return
		}
		e.execErrs.Add(1)
		s.execErrs.Add(1)
		httpError(w, http.StatusConflict, "exec: %v", err)
		return
	}
	if res.Signal == "SIGKILL" && wd.Dying() {
		// The session was collateral of a health kill (Kill breaks a
		// wedged world loose with SIGKILL): report it retryable rather
		// than handing the tenant a result the program never produced.
		retryable(w, e.deadRetrySecs(), true, "session killed by world recovery")
		return
	}
	e.sessions.Add(1)
	s.sessions.Add(1)
	// Group commit at the session boundary: a journaled tenant's
	// completed sessions are durable, so crash recovery replays whole
	// sessions, never a torn one. A commit failure latches in the
	// writer, where the watchdog's journal check picks it up.
	if jw := wd.Kernel().Journal(); jw != nil {
		_ = jw.Commit()
	}
	reply(w, http.StatusOK, res)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e, ok := s.worlds[id]
	if ok {
		delete(s.worlds, id)
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such world")
		return
	}
	// Close outside the table lock: it waits for an in-flight session.
	// The entry lock serializes against a recovery rebuild — if one is
	// mid-swap we wait for it and close the replacement; if one is
	// sleeping in backoff, the gone flag stops it. The journal
	// reservation releases only after Close — a create reusing the key
	// between table removal and here gets 409, never a second writer on
	// a still-open file.
	e.mu.Lock()
	e.gone = true
	wd := e.w.Load()
	e.mu.Unlock()
	var err error
	if wd != nil {
		err = wd.Close()
	}
	s.releaseJournal(e.journal)
	s.closed.Add(1)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "close: %v", err)
		return
	}
	s.logf("worldd: deleted %s", id)
	reply(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.worlds))
	for _, e := range s.worlds {
		entries = append(entries, e)
	}
	draining := s.draining
	s.mu.Unlock()

	// Per-world snapshots merge into one fleet view; worlds without a
	// telemetry registry still count, they just contribute no rows.
	var snaps []telemetry.Snapshot
	health := make(map[string]int)
	for _, e := range entries {
		health[healthName(e.health.Load())]++
		if wd := e.w.Load(); wd != nil {
			if reg := wd.Telemetry(); reg != nil {
				snaps = append(snaps, reg.Snapshot())
			}
		}
	}
	// Load closed before created: each lifecycle increments created at
	// create time and closed strictly later, so this read order keeps
	// the closed <= created invariant under any interleaving — the
	// fleet view is never torn into an impossible state.
	closed := s.closed.Load()
	created := s.created.Load()
	reply(w, http.StatusOK, Metrics{
		Worlds:     len(entries),
		Created:    created,
		Closed:     closed,
		Sessions:   s.sessions.Load(),
		ExecErrs:   s.execErrs.Load(),
		Draining:   draining,
		Shed:       s.shed.Load(),
		Throttled:  s.throttled.Load(),
		Deaths:     s.deaths.Load(),
		Recoveries: s.recoveries.Load(),
		Parks:      s.parks.Load(),
		Probes:     s.probes.Load(),
		ProbeFails: s.probeFails.Load(),
		Health:     health,
		Pools:      []PoolInfo{{Hits: created}},
		Telemetry:  telemetry.Merge(snaps),
	})
}

// Worlds reports the current table size (for tests and the drain log).
func (s *Server) Worlds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.worlds)
}

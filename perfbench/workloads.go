package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"time"

	"interpose/internal/apps"
	"interpose/internal/telemetry"
	"interpose/internal/world"
)

// The workloads stress different layers of one daemon; BENCHMARK.json
// records each one's reason. Every workload is a closed loop on conns
// connections: each sends its next session as soon as the last returns.
//
//   - exec-light: 8 long-lived tenants (4 pooled, 4 booted; stacks
//     alternate none and timex=3600), a seeded 70/20/10 mix of true,
//     echo and a pipeline.
//     Each session's fixed cost dominates — socket, HTTP, JSON,
//     admission, world lock, process creation, exec — while VFS, agents
//     and journal do almost nothing. Closed, because time.Sleep on a
//     small VM overshoots by about 1ms, far above a ~50µs session.
//   - build-agents: 4 tenants, one per paper agent stack, each session
//     on a seeded choice of them; a session rebuilds the 8-program make
//     tree (the paper's Table 3-3 build), so agents, kernel and VFS
//     dominate and the daemon's share is small. The connections stand
//     for two CI runners, each starting its next build when the last
//     returns. An open loop of Poisson arrivals left the CPUs idle
//     between builds, and waking them spread latency p99 by more than a
//     quarter from seed to seed.
//   - tenant-churn: a session is a whole tenant lifecycle — create
//     (alternately pooled and booted, both journaled in memory), one
//     write-heavy session, delete — so world construction, COW
//     unsharing, journal append and teardown dominate.
var workloads = []*workload{
	{
		name:      "exec-light",
		tenants:   lightTenants(),
		warm:      lightWarm,
		session:   lightSession,
		cycle:     plainCycle,
		probe:     []world.ExecRequest{trueReq, trueReq, trueReq, trueReq, trueReq, trueReq, trueReq, echoReq, echoReq, pipeReq},
		probeReps: 30,
	},
	{
		name:      "build-agents",
		tenants:   buildTenants(),
		warm:      buildWarm,
		session:   buildSession,
		verify:    buildVerify,
		cycle:     plainCycle,
		probe:     []world.ExecRequest{buildReq},
		probeReps: 5,
	},
	{
		name:       "tenant-churn",
		warm:       churnWarm,
		session:    churnSession,
		cycle:      churnCycle,
		probe:      []world.ExecRequest{churnReq},
		probeSpec:  churnBoot,
		probeFresh: true,
		probeReps:  15,
	},
}

// workload is one traffic mix.
type workload struct {
	name string
	// tenants are created at set-up and live through the run.
	tenants []world.Spec
	// warm runs the set-up's warm-up sessions and takes expected outputs.
	warm func(e *env) error
	// session runs one session and checks its output.
	session func(e *env, wk *worker) error
	// verify, if set, runs extra end-of-run checks in the traced run.
	verify func(e *env) error
	// cycle creates, uses (tenant-churn only) and deletes one tenant
	// through the daemon, alternating pooled and booted specs with i;
	// before runs while the tenant is live. The traced run times the
	// daemon's create and delete paths with it.
	cycle func(e *env, i int, before func() error) error
	// probe is the session as the direct probes run it on worlds built
	// from probeSpec; probeFresh forks a fresh world for every run,
	// because the session writes.
	probe      []world.ExecRequest
	probeSpec  world.Spec
	probeFresh bool
	probeReps  int
}

// worker is one connection's loop state: its seeded input generator and
// how many sessions it has started.
type worker struct {
	id  int
	n   int
	rng *rand.Rand
}

// The paper's agent stacks (experiments.AgentStack) as wire specs; the
// empty stack is none.
const (
	timexStack = "timex=3600"
	traceStack = "trace"
	unionStack = "union=/view=/doc:/src"
)

var (
	trueReq = world.ExecRequest{Argv: []string{"true"}}
	echoReq = world.ExecRequest{Argv: []string{"echo", "hello", "world"}}
	// Guest wc counts only named files, never standard input, so wc
	// counts /etc/passwd itself after the pipeline has copied it to the
	// output; the session writes no file.
	pipeReq  = world.ExecRequest{Argv: []string{"sh", "-c", "cat /etc/passwd | cat; wc /etc/passwd"}}
	buildReq = world.ExecRequest{Argv: []string{"sh", "-c", "cd /src; touch defs.h; mk all"}}
	churnReq = world.ExecRequest{Argv: []string{"sh", "-c",
		"mkdir /w; cd /w; cp /doc/chapter01.mss a; cp a b; cat a b > c; mv c d; wc d; rm a"}}

	trueBody  = body(trueReq)
	echoBody  = body(echoReq)
	pipeBody  = body(pipeReq)
	buildBody = body(buildReq)
	churnBody = body(churnReq)

	churnPooled = world.Spec{Name: "churn", Pool: 4, JournalMem: true}
	churnBoot   = world.Spec{Name: "churn", JournalMem: true}
)

func body(req world.ExecRequest) []byte {
	b, _ := json.Marshal(req) // an ExecRequest always marshals
	return b
}

// env is one set-up daemon with its tenants and client.
type env struct {
	d         *daemon
	c         *client
	ids       []string // the workload's long-lived tenants, in order
	telemetry bool     // tenants carry the telemetry option (traced runs)
	ref       reference
	wantWC    string // exec-light's pipeline output with wc's count, taken at set-up
}

// setup starts a daemon, creates the workload's tenants, runs its
// warm-up and waits for every pool to refill: everything before the
// first measured session.
func setup(w *workload, sock string, ref reference, rec *recorder, telemetry bool) (*env, error) {
	d, err := startDaemon(sock, rec)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	e := &env{d: d, c: newClient(sock, rec), telemetry: telemetry, ref: ref}
	if err := e.populate(w); err != nil {
		e.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	return e, nil
}

func (e *env) populate(w *workload) error {
	for _, s := range w.tenants {
		id, err := e.create(s)
		if err != nil {
			return err
		}
		e.ids = append(e.ids, id)
	}
	if err := w.warm(e); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return e.poolsFull()
}

func (e *env) create(spec world.Spec) (string, error) {
	spec.Telemetry = e.telemetry
	return e.c.create(spec)
}

// poolsFull waits for every warm pool's background refill to finish, so
// that set-up ends with the daemon at rest.
func (e *env) poolsFull() error {
	for deadline := time.Now().Add(10 * time.Second); ; {
		m, err := e.c.metrics()
		if err != nil {
			return err
		}
		full := true
		for _, p := range m.Pools {
			full = full && p.Size >= p.Target
		}
		if full {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("pools did not refill within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

func (e *env) close() error {
	e.c.tr.CloseIdleConnections()
	return e.d.stop()
}

// reference holds fixture facts read straight from a booted world, to
// check what sessions report.
type reference struct {
	passwd  []byte // /etc/passwd
	chapter int    // bytes in /doc/chapter01.mss
}

func takeReference() (reference, error) {
	w, err := world.Boot(hostSpec(world.Spec{}))
	if err != nil {
		return reference{}, err
	}
	defer w.Close()
	pw, err := w.Kernel().ReadFile("/etc/passwd")
	if err != nil {
		return reference{}, err
	}
	ch, err := w.Kernel().ReadFile("/doc/chapter01.mss")
	if err != nil {
		return reference{}, err
	}
	return reference{passwd: pw, chapter: len(ch)}, nil
}

// exited checks that a session's program exited 0.
func exited(res world.ExecResult) error {
	if res.Signal != "" || res.Status != 0 {
		return fmt.Errorf("exit %d %s: %.300q", res.Status, res.Signal, res.Output)
	}
	return nil
}

// lifecycle creates a tenant from spec, runs body on it (if any), calls
// before (if any) while the tenant is live, and deletes it.
func lifecycle(e *env, spec world.Spec, body []byte, before func() error) (world.ExecResult, error) {
	id, err := e.create(spec)
	if err != nil {
		return world.ExecResult{}, err
	}
	var res world.ExecResult
	if body != nil {
		res, err = e.c.exec(id, body)
	}
	if err == nil && before != nil {
		err = before()
	}
	if derr := e.c.remove(id); err == nil {
		err = derr
	}
	return res, err
}

// plainCycle creates and deletes a bare tenant, pooled for even i.
func plainCycle(e *env, i int, before func() error) error {
	spec := world.Spec{Name: "cycle"}
	if i%2 == 0 {
		spec.Pool = 2
	}
	_, err := lifecycle(e, spec, nil, before)
	return err
}

// exec-light

func lightTenants() []world.Spec {
	var ts []world.Spec
	for i := 0; i < 8; i++ {
		s := world.Spec{Name: fmt.Sprintf("light%d", i)}
		if i < 4 {
			s.Pool = 2
		}
		if i%2 == 1 {
			s.Agents = []string{timexStack}
		}
		ts = append(ts, s)
	}
	return ts
}

func lightSession(e *env, wk *worker) error {
	id := e.ids[wk.rng.Intn(len(e.ids))]
	body, want := trueBody, ""
	switch x := wk.rng.Float64(); {
	case x >= 0.9:
		body, want = pipeBody, e.wantWC
	case x >= 0.7:
		body, want = echoBody, "hello world\n"
	}
	res, err := e.c.exec(id, body)
	if err != nil {
		return err
	}
	if err := exited(res); err != nil {
		return err
	}
	if res.Output != want {
		return fmt.Errorf("output %q, want %q", res.Output, want)
	}
	return nil
}

// lightWarm takes the pipeline's expected output on the live daemon,
// checks it — the piped bytes and wc's count — against the fixture's
// /etc/passwd, then runs 32 sessions per tenant.
func lightWarm(e *env) error {
	res, err := e.c.exec(e.ids[0], pipeBody)
	if err != nil {
		return err
	}
	if err := exited(res); err != nil {
		return err
	}
	pw := e.ref.passwd
	count, piped := strings.CutPrefix(res.Output, string(pw))
	f := strings.Fields(count)
	if !piped || len(f) != 4 || f[0] != strconv.Itoa(bytes.Count(pw, []byte("\n"))) || f[2] != strconv.Itoa(len(pw)) || f[3] != "/etc/passwd" {
		return fmt.Errorf("pipeline and wc of /etc/passwd: %.300q", res.Output)
	}
	e.wantWC = res.Output
	wk := &worker{rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 32*len(e.ids); i++ {
		if err := lightSession(e, wk); err != nil {
			return err
		}
	}
	return nil
}

// build-agents

func buildTenants() []world.Spec {
	var ts []world.Spec
	for i, stack := range []string{"", timexStack, traceStack, unionStack} {
		s := world.Spec{Name: fmt.Sprintf("build%d", i)}
		if stack != "" {
			s.Agents = []string{stack}
		}
		ts = append(ts, s)
	}
	return ts
}

// buildLines are what mk prints for a full rebuild, one line per program.
var buildLines = func() []string {
	var ls []string
	for i := 1; i <= 8; i++ {
		ls = append(ls, fmt.Sprintf("cc -o prog%d prog%d_main.c prog%d_sub.c\n", i, i, i))
	}
	return ls
}()

// build runs one rebuild on tenant id: mk must exit 0 having rebuilt all
// 8 programs.
func build(e *env, id string) error {
	res, err := e.c.exec(id, buildBody)
	if err != nil {
		return err
	}
	if err := exited(res); err != nil {
		return err
	}
	for i, l := range buildLines {
		if !strings.Contains(res.Output, l) {
			return fmt.Errorf("build did not rebuild prog%d: %.300q", i+1, res.Output)
		}
	}
	return nil
}

// buildSession builds on a seeded choice of the 4 tenants. When both
// connections pick the same one, the second build waits on that world's
// lock, as two jobs for one tenant would.
func buildSession(e *env, wk *worker) error {
	return build(e, e.ids[wk.rng.Intn(len(e.ids))])
}

func buildWarm(e *env) error {
	for round := 0; round < 2; round++ {
		for _, id := range e.ids {
			if err := build(e, id); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceLine matches a line the trace agent writes into the console
// stream ("<pid>| ..."); program output may sit before it on the line.
var traceLine = regexp.MustCompile(`\d+\| [^\n]*\n`)

// buildVerify runs every built program on every tenant and compares its
// output, with trace lines cut, against apps.ExpectedProgOutput.
func buildVerify(e *env) error {
	for _, id := range e.ids {
		for i := 1; i <= 8; i++ {
			res, err := e.c.exec(id, body(world.ExecRequest{Argv: []string{fmt.Sprintf("/src/prog%d", i)}}))
			if err != nil {
				return err
			}
			if err := exited(res); err != nil {
				return err
			}
			if out, want := traceLine.ReplaceAllString(res.Output, ""), apps.ExpectedProgOutput(i); out != want {
				return fmt.Errorf("%s: prog%d printed %q, want %q", id, i, out, want)
			}
		}
	}
	return nil
}

// tenant-churn

// churnCycle is one churn lifecycle, pooled for even i. The session's
// wc of d must count twice chapter01.mss.
func churnCycle(e *env, i int, before func() error) error {
	spec := churnBoot
	if i%2 == 0 {
		spec = churnPooled
	}
	res, err := lifecycle(e, spec, churnBody, before)
	if err != nil {
		return err
	}
	if err := exited(res); err != nil {
		return err
	}
	want := 2 * e.ref.chapter
	if f := strings.Fields(res.Output); len(f) != 4 || f[3] != "d" || f[2] != strconv.Itoa(want) {
		return fmt.Errorf("wc d: %q, want %d bytes", res.Output, want)
	}
	return nil
}

// churnSession alternates pooled and booted creates, the two
// connections in opposite phase.
func churnSession(e *env, wk *worker) error {
	return churnCycle(e, wk.n+wk.id, nil)
}

func churnWarm(e *env) error {
	for i := 0; i < 8; i++ {
		if err := churnCycle(e, i, nil); err != nil {
			return err
		}
	}
	return nil
}

// Slots of a kcounts.
const (
	kCalls = iota
	kErrs
	kImgHit
	kImgMiss
	kDentryHit
	kDentryMiss
	kAttrHit
	kAttrMiss
	kSlots
)

// kcounts are kernel and VFS counters from a telemetry snapshot.
type kcounts [kSlots]uint64

// counterSlot maps the kernel's cache gauges to kcounts slots; negative
// dentry hits count as hits.
var counterSlot = map[string]int{
	"exec.image.hit":    kImgHit,
	"exec.image.miss":   kImgMiss,
	"vfs.dentry.hit":    kDentryHit,
	"vfs.dentry.neghit": kDentryHit,
	"vfs.dentry.miss":   kDentryMiss,
	"vfs.attr.hit":      kAttrHit,
	"vfs.attr.miss":     kAttrMiss,
}

func countsOf(s telemetry.Snapshot) kcounts {
	k := kcounts{kCalls: s.Total, kErrs: s.Errs}
	for _, c := range s.Counters {
		if i, ok := counterSlot[c.Name]; ok {
			k[i] += c.Value
		}
	}
	return k
}

func (a kcounts) add(b kcounts) kcounts {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

func (a kcounts) sub(b kcounts) kcounts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

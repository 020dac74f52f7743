package core_test

import (
	"strings"
	"testing"

	"interpose/internal/agents/nullagent"
	"interpose/internal/agents/timex"
	"interpose/internal/agents/trace"
	"interpose/internal/core"
	"interpose/internal/image"
	"interpose/internal/kernel"
	"interpose/internal/libc"
	"interpose/internal/sys"
)

// world boots a kernel with small test programs.
func world(t *testing.T) *kernel.Kernel {
	t.Helper()
	reg := image.NewRegistry()
	reg.Register("clock", libc.Main(func(lt *libc.T) int {
		tv, err := lt.Gettimeofday()
		if err != sys.OK {
			return 1
		}
		lt.Printf("sec=%d\n", tv.Sec)
		return 0
	}))
	reg.Register("toucher", libc.Main(func(lt *libc.T) int {
		if err := lt.WriteFile("/tmp/touched", []byte("data"), 0o644); err != sys.OK {
			return 1
		}
		st, err := lt.Stat("/tmp/touched")
		if err != sys.OK || st.Size != 4 {
			return 2
		}
		return 0
	}))
	reg.Register("execself", libc.Main(func(lt *libc.T) int {
		if len(lt.Args) > 1 && lt.Args[1] == "second" {
			lt.Printf("second stage pid=%d\n", lt.Getpid())
			return 0
		}
		lt.Exec("/bin/execself", []string{"execself", "second"}, lt.Env)
		return 9
	}))
	reg.Register("forker", libc.Main(func(lt *libc.T) int {
		pid, err := lt.Fork(func(ct *libc.T) {
			ct.Printf("child time check\n")
			tv, _ := ct.Gettimeofday()
			ct.Printf("child sec=%d\n", tv.Sec)
			ct.Exit(0)
		})
		if err != sys.OK {
			return 1
		}
		lt.Waitpid(pid)
		return 0
	}))
	k := kernel.New(reg)
	for _, n := range []string{"clock", "toucher", "execself", "forker"} {
		if err := k.InstallProgram("/bin/"+n, n); err != nil {
			t.Fatalf("install: %v", err)
		}
	}
	return k
}

func TestTimexShiftsTime(t *testing.T) {
	k := world(t)
	// Run without agent.
	st, out, err := core.Run(k, nil, "/bin/clock", []string{"clock"}, nil)
	if err != nil || sys.WExitStatus(st) != 0 {
		t.Fatalf("bare run: %v %#x %q", err, st, out)
	}
	var bare int64
	if _, e := parse(out, "sec=%d\n", &bare); e != nil {
		t.Fatalf("parse %q: %v", out, e)
	}

	a, aerr := timex.New("100000")
	if aerr != nil {
		t.Fatal(aerr)
	}
	st, out, err = core.Run(k, []core.Agent{a}, "/bin/clock", []string{"clock"}, nil)
	if err != nil || sys.WExitStatus(st) != 0 {
		t.Fatalf("timex run: %v %#x %q", err, st, out)
	}
	var shifted int64
	if _, e := parse(out, "sec=%d\n", &shifted); e != nil {
		t.Fatalf("parse %q: %v", out, e)
	}
	diff := shifted - bare
	if diff < 99990 || diff > 100010 {
		t.Fatalf("timex shift = %d, want ~100000", diff)
	}
}

func TestTimexFollowsForkChildren(t *testing.T) {
	k := world(t)
	a, _ := timex.New("500000")
	st, out, err := core.Run(k, []core.Agent{a}, "/bin/forker", []string{"forker"}, nil)
	if err != nil || sys.WExitStatus(st) != 0 {
		t.Fatalf("run: %v %#x %q", err, st, out)
	}
	var childSec int64
	if _, e := parseAfter(out, "child sec=", &childSec); e != nil {
		t.Fatalf("parse %q: %v", out, e)
	}
	if childSec < 400000 {
		t.Fatalf("child not under agent: sec=%d", childSec)
	}
}

func TestNullAgentTransparent(t *testing.T) {
	k := world(t)
	st, out, err := core.Run(k, []core.Agent{nullagent.New()}, "/bin/toucher", []string{"toucher"}, nil)
	if err != nil || sys.WExitStatus(st) != 0 {
		t.Fatalf("run: %v status=%#x out=%q", err, st, out)
	}
	data, ferr := k.ReadFile("/tmp/touched")
	if ferr != nil || string(data) != "data" {
		t.Fatalf("file: %v %q", ferr, data)
	}
}

func TestNullAgentExecve(t *testing.T) {
	// Exercises the toolkit's execve reimplementation from primitives.
	k := world(t)
	st, out, err := core.Run(k, []core.Agent{nullagent.New()}, "/bin/execself", []string{"execself"}, nil)
	if err != nil || sys.WExitStatus(st) != 0 {
		t.Fatalf("run: %v status=%#x out=%q", err, st, out)
	}
	if !strings.Contains(out, "second stage pid=") {
		t.Fatalf("out = %q", out)
	}
}

func TestTraceOutput(t *testing.T) {
	k := world(t)
	st, out, err := core.Run(k, []core.Agent{trace.New()}, "/bin/toucher", []string{"toucher"}, nil)
	if err != nil || sys.WExitStatus(st) != 0 {
		t.Fatalf("run: %v status=%#x out=%q", err, st, out)
	}
	for _, want := range []string{
		`open("/tmp/touched"`, "... open -> 3", `stat("/tmp/touched"`, "exit(0)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace output missing %q in:\n%s", want, out)
		}
	}
}

func TestStackedAgents(t *testing.T) {
	// timex under trace: both effects visible.
	k := world(t)
	tx, _ := timex.New("100000")
	st, out, err := core.Run(k, []core.Agent{tx, trace.New()}, "/bin/clock", []string{"clock"}, nil)
	if err != nil || sys.WExitStatus(st) != 0 {
		t.Fatalf("run: %v %#x %q", err, st, out)
	}
	if !strings.Contains(out, "gettimeofday") {
		t.Fatalf("no trace of gettimeofday:\n%s", out)
	}
	var sec int64
	if _, e := parseAfter(out, "sec=", &sec); e != nil {
		t.Fatalf("parse: %v\n%s", e, out)
	}
}

// parse and parseAfter are tiny scanners for test output.
// TestLaunchFailureReapsProc: a launch whose image cannot start retires
// the process it published, so repeated failures leave the table empty.
func TestLaunchFailureReapsProc(t *testing.T) {
	k := world(t)
	for i := 0; i < 10; i++ {
		agents := []core.Agent{nullagent.New()}
		if _, err := core.Launch(k, agents, "/bin/no-such", []string{"no-such"}, nil); err == nil {
			t.Fatal("launch of a missing image succeeded")
		}
	}
	if n := k.ProcCount(); n != 0 {
		t.Fatalf("%d procs left after failed launches", n)
	}
}

func parse(s, format string, out *int64) (int, error) {
	idx := strings.Index(format, "%d")
	prefix := format[:idx]
	return parseAfter(s, prefix, out)
}

func parseAfter(s, prefix string, out *int64) (int, error) {
	i := strings.Index(s, prefix)
	if i < 0 {
		return 0, strError("prefix not found: " + prefix)
	}
	s = s[i+len(prefix):]
	var v int64
	n := 0
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		v = v*10 + int64(s[n]-'0')
		n++
	}
	if n == 0 {
		return 0, strError("no digits after " + prefix)
	}
	*out = v
	return n, nil
}

type strError string

func (e strError) Error() string { return string(e) }

package trace_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"interpose/internal/agents/agenttest"
	"interpose/internal/agents/trace"
	"interpose/internal/apps"
	"interpose/internal/core"
	"interpose/internal/image"
	"interpose/internal/libc"
	"interpose/internal/sys"
	"interpose/internal/world"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this run")

// goldenMain is a single-process guest that exercises every argument
// shape the trace agent prints: decimal, hex and octal numbers, negative
// values, quoted paths that need escaping, error results, a pipe, a
// caught signal, an unknown system call, and finally an execve with an
// argument vector. One process and no fork keeps the interleaving of
// trace lines and program output deterministic.
func goldenMain(t *libc.T) int {
	odd := "/tmp/odd \"name\"\t\x01\xffé"
	t.Open("/nonexistent", sys.O_RDONLY, 0)
	fd, _ := t.Creat(odd, 0o640)
	t.Write(fd, []byte("hello\n"))
	t.Close(fd)
	fd, _ = t.Open(odd, sys.O_RDWR|sys.O_APPEND, 0)
	buf := make([]byte, 16)
	t.Read(fd, buf)
	t.Lseek(fd, -5, 0)
	t.Fstat(fd)
	t.Dup2(fd, 9)
	t.Fcntl(9, sys.F_GETFD, 0)
	t.Close(9)
	t.Close(fd)
	t.Close(42)
	t.Stat(odd)
	t.Chmod(odd, 0o4755)
	t.Symlink(odd, "/tmp/link")
	t.Readlink("/tmp/link")
	t.Rename("/tmp/link", "/tmp/link2")
	t.Unlink("/tmp/link2")
	t.Mkdir("/tmp/d", 0o700)
	t.Chdir("/tmp/d")
	t.Chdir("/")
	t.Rmdir("/tmp/d")
	t.Access("/bin/echo", sys.X_OK)
	t.Umask(0o27)
	t.Getrusage(sys.Word(0xffffffff)) // RUSAGE_CHILDREN: prints as -1
	t.Wait4(-1, 0)                    // no children: ECHILD
	t.Sigblock(sys.SigMask(sys.SIGUSR2))
	t.Sigsetmask(0)
	r, w, _ := t.Pipe()
	t.Write(w, []byte("x"))
	t.Read(r, buf[:1])
	t.Close(r)
	t.Close(w)
	t.Signal(sys.SIGUSR1, func(ht *libc.T, sig int) {
		ht.Printf("caught %s\n", sys.SignalName(sig))
	})
	t.Kill(t.Getpid(), sys.SIGUSR1)
	t.Syscall(sys.MaxSyscall+7, 1, 0xdeadbeef, 3)
	t.Printf("pid %d uid %d\n", t.Getpid(), t.Getuid())
	t.Exec("/bin/echo", []string{"echo", "two words", `q"uote`, "tab\there"}, []string{"PATH=/bin"})
	return 1
}

// TestTraceGolden pins the trace agent's output byte for byte against
// testdata/golden.txt. Regenerate with -update only when the output is
// meant to change.
func TestTraceGolden(t *testing.T) {
	w := agenttest.Boot(t, world.Spec{Register: func(r *image.Registry) {
		apps.Register(r)
		r.Register("tracegold", libc.Main(goldenMain))
	}})
	st, out := agenttest.Run(t, w.Kernel(), []core.Agent{trace.New()}, "tracegold")
	if st != 0 {
		t.Fatalf("tracegold exited %d\n%s", st, out)
	}
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("trace output differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, out, want)
	}
}

package kernel_test

import (
	"testing"

	"interpose/internal/libc"
	"interpose/internal/sys"
)

// TestFDTableGrowsOnDemand: a process's descriptor table starts with a
// few slots and grows to whatever descriptor is installed, up to
// min(RLIMIT_NOFILE, OpenMax). Every errno at its edges reads as it
// would from a table allocated whole: dup2 and F_DUPFD reach the last
// slot, a descriptor past the table's length is EBADF, fork copies a
// sparse table, execve sweeps the close-on-exec slots, and a lowered
// RLIMIT_NOFILE gives EMFILE.
func TestFDTableGrowsOnDemand(t *testing.T) {
	last := sys.OpenMax - 1
	st, out := runFn(t, func(lt *libc.T) int {
		if len(lt.Args) > 1 && lt.Args[1] == "execd" {
			// The fresh image: fd 40 was close-on-exec, fd last was not.
			_, e40 := lt.Fcntl(40, sys.F_GETFD, 0)
			_, eLast := lt.Fcntl(last, sys.F_GETFD, 0)
			lt.Printf("exec: 40 %s last %s\n", e40.Name(), eLast.Name())
			return 0
		}
		lt.Printf("dup2 last %s\n", lt.Dup2(1, last).Name())
		fd, e := lt.Fcntl(1, sys.F_DUPFD, 40)
		lt.Printf("dupfd 40: %d %s\n", fd, e.Name())
		lt.Printf("dup2 past %s\n", lt.Dup2(1, sys.OpenMax).Name())
		_, e = lt.Fcntl(1, sys.F_DUPFD, sys.Word(sys.OpenMax))
		lt.Printf("dupfd past %s\n", e.Name())
		_, e = lt.Fcntl(50, sys.F_GETFD, 0)
		lt.Printf("getfd 50 %s close 50 %s\n", e.Name(), lt.Close(50).Name())
		_, e = lt.Fcntl(sys.OpenMax+10, sys.F_GETFD, 0)
		lt.Printf("getfd past %s close past %s\n", e.Name(), lt.Close(sys.OpenMax+10).Name())
		lt.Fcntl(40, sys.F_SETFD, sys.FD_CLOEXEC)

		pid, _ := lt.Fork(func(ct *libc.T) {
			v40, e40 := ct.Fcntl(40, sys.F_GETFD, 0)
			_, eLast := ct.Fcntl(last, sys.F_GETFD, 0)
			_, e50 := ct.Fcntl(50, sys.F_GETFD, 0)
			ct.Printf("child: 40 %s cloexec %d last %s 50 %s\n", e40.Name(), v40, eLast.Name(), e50.Name())
			ct.Exit(0)
		})
		lt.Waitpid(pid)
		pid, _ = lt.Fork(func(ct *libc.T) {
			ct.Exec("/bin/main", []string{"main", "execd"}, nil)
			ct.Exit(3) // only reached if exec failed
		})
		if _, wst, _ := lt.Waitpid(pid); sys.WExitStatus(wst) != 0 {
			lt.Printf("exec child status %#x\n", wst)
		}

		lt.Close(40)
		lt.Close(last)
		lt.Setrlimit(sys.RLIMIT_NOFILE, sys.Rlimit{Cur: 6, Max: 6})
		var opened []int
		for {
			fd, e := lt.Open("/etc/passwd", sys.O_RDONLY, 0)
			if e != sys.OK {
				lt.Printf("open %v then %s\n", opened, e.Name())
				break
			}
			opened = append(opened, fd)
		}
		_, e = lt.Fcntl(1, sys.F_DUPFD, 0)
		lt.Printf("dupfd full %s dup2 at limit %s\n", e.Name(), lt.Dup2(1, 6).Name())
		return 0
	})
	want := "dup2 last E0\n" +
		"dupfd 40: 40 E0\n" +
		"dup2 past EBADF\n" +
		"dupfd past EMFILE\n" +
		"getfd 50 EBADF close 50 EBADF\n" +
		"getfd past EBADF close past EBADF\n" +
		"child: 40 E0 cloexec 1 last E0 50 EBADF\n" +
		"exec: 40 EBADF last E0\n" +
		"open [3 4 5] then EMFILE\n" +
		"dupfd full EMFILE dup2 at limit EBADF\n"
	if out := expectOK(t, st, out); out != want {
		t.Fatalf("out = %q\nwant  %q", out, want)
	}
}

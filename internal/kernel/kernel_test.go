package kernel_test

import (
	"strings"
	"testing"

	"interpose/internal/image"
	"interpose/internal/kernel"
	"interpose/internal/libc"
	"interpose/internal/sys"
	"interpose/internal/vfs"
)

// runFn boots a minimal kernel and runs fn as pid 1, returning its exit
// status and console output.
func runFn(t *testing.T, fn func(*libc.T) int) (sys.Word, string) {
	t.Helper()
	return runFnSetup(t, nil, fn)
}

func runFnSetup(t *testing.T, setup func(k *kernel.Kernel), fn func(*libc.T) int) (sys.Word, string) {
	t.Helper()
	reg := image.NewRegistry()
	reg.Register("main", libc.Main(fn))
	k := kernel.New(reg)
	if err := k.InstallProgram("/bin/main", "main"); err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(k)
	}
	p, err := k.Spawn("/bin/main", []string{"main"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	status := k.WaitExit(p)
	return status, k.Console().TakeOutput()
}

// expectOK asserts a clean exit.
func expectOK(t *testing.T, st sys.Word, out string) string {
	t.Helper()
	if !sys.WIfExited(st) || sys.WExitStatus(st) != 0 {
		t.Fatalf("status = %#x, output:\n%s", st, out)
	}
	return out
}

func TestErrnoCases(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		check := func(what string, got, want sys.Errno) {
			if got != want {
				lt.Printf("FAIL %s: got %s want %s\n", what, got.Name(), want.Name())
			}
		}
		_, err := lt.Open("/no/such/file", sys.O_RDONLY, 0)
		check("open missing", err, sys.ENOENT)
		_, err = lt.Open("/etc/passwd", sys.O_RDONLY|sys.O_CREAT|sys.O_EXCL, 0o644)
		check("excl existing", err, sys.EEXIST)
		check("close bad fd", lt.Close(99), sys.EBADF)
		check("close negative", lt.Close(-1), sys.EBADF)
		_, err = lt.Read(99, make([]byte, 1))
		check("read bad fd", err, sys.EBADF)
		check("unlink dir", lt.Unlink("/etc"), sys.EPERM)
		check("rmdir file", lt.Rmdir("/etc/passwd"), sys.ENOTDIR)
		check("rmdir nonempty", lt.Rmdir("/etc"), sys.ENOTEMPTY)
		check("chdir to file", lt.Chdir("/etc/passwd"), sys.ENOTDIR)
		check("mkdir exists", lt.Mkdir("/etc", 0o755), sys.EEXIST)
		_, err = lt.Syscall(157) // unimplemented number
		check("bad syscall", err, sys.ENOSYS)
		// Write to a read-only descriptor.
		fd, _ := lt.Open("/etc/passwd", sys.O_RDONLY, 0)
		_, err = lt.Write(fd, []byte("x"))
		check("write rdonly", err, sys.EBADF)
		// EFAULT on a wild pointer.
		_, err = lt.Syscall(sys.SYS_stat, 0x10, 0x20)
		check("stat wild pointer", err, sys.EFAULT)
		return 0
	})
	out = expectOK(t, st, out)
	if strings.Contains(out, "FAIL") {
		t.Fatalf("errno failures:\n%s", out)
	}
}

func TestDupSharesOffset(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		lt.WriteFile("/tmp/f", []byte("abcdefgh"), 0o644)
		fd, _ := lt.Open("/tmp/f", sys.O_RDONLY, 0)
		dup, _ := lt.Dup(fd)
		b := make([]byte, 2)
		lt.Read(fd, b)  // reads "ab"
		lt.Read(dup, b) // shares the offset: reads "cd"
		lt.Printf("%s\n", b)
		// Independent opens do not share.
		other, _ := lt.Open("/tmp/f", sys.O_RDONLY, 0)
		lt.Read(other, b)
		lt.Printf("%s\n", b)
		return 0
	})
	if out := expectOK(t, st, out); out != "cd\nab\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestAppendMode(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		lt.WriteFile("/tmp/log", []byte("start\n"), 0o644)
		fd, _ := lt.Open("/tmp/log", sys.O_WRONLY|sys.O_APPEND, 0)
		lt.Write(fd, []byte("one\n"))
		// Even after an explicit rewind, append writes go to the end.
		lt.Lseek(fd, 0, sys.SEEK_SET)
		lt.Write(fd, []byte("two\n"))
		lt.Close(fd)
		data, _ := lt.ReadFile("/tmp/log")
		lt.Printf("%s", data)
		return 0
	})
	if out := expectOK(t, st, out); out != "start\none\ntwo\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestCloexecOnExec(t *testing.T) {
	reg := image.NewRegistry()
	reg.Register("parent", libc.Main(func(lt *libc.T) int {
		keep, _ := lt.Open("/etc/passwd", sys.O_RDONLY, 0)
		closeme, _ := lt.Open("/etc/motd", sys.O_RDONLY, 0)
		lt.SetCloexec(closeme)
		lt.Exec("/bin/child", []string{"child", itoa(keep), itoa(closeme)}, nil)
		return 9
	}))
	reg.Register("child", libc.Main(func(lt *libc.T) int {
		keep, closeme := atoi(lt.Args[1]), atoi(lt.Args[2])
		if _, err := lt.Fstat(keep); err != sys.OK {
			lt.Printf("kept fd lost: %v\n", err)
			return 1
		}
		if _, err := lt.Fstat(closeme); err != sys.EBADF {
			lt.Printf("cloexec fd survived\n")
			return 1
		}
		lt.Printf("ok\n")
		return 0
	}))
	k := kernel.New(reg)
	k.InstallProgram("/bin/parent", "parent")
	k.InstallProgram("/bin/child", "child")
	p, _ := k.Spawn("/bin/parent", []string{"parent"}, nil)
	st := k.WaitExit(p)
	out := k.Console().TakeOutput()
	if sys.WExitStatus(st) != 0 || out != "ok\n" {
		t.Fatalf("%#x %q", st, out)
	}
}

func TestUmaskAppliesToCreate(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		lt.Umask(0o077)
		fd, _ := lt.Open("/tmp/f", sys.O_CREAT|sys.O_WRONLY, 0o666)
		lt.Close(fd)
		stat, _ := lt.Stat("/tmp/f")
		lt.Printf("%o\n", stat.Mode&0o777)
		return 0
	})
	if out := expectOK(t, st, out); out != "600\n" {
		t.Fatalf("mode = %q", out)
	}
}

func TestRlimitFsize(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		lt.Ignore(sys.SIGXFSZ)
		lt.Setrlimit(sys.RLIMIT_FSIZE, sys.Rlimit{Cur: 10, Max: 10})
		fd, _ := lt.Open("/tmp/capped", sys.O_CREAT|sys.O_WRONLY, 0o644)
		n, _ := lt.Write(fd, []byte("0123456789ABCDEF"))
		lt.Printf("wrote %d\n", n)
		_, err := lt.Write(fd, []byte("more"))
		lt.Printf("then %s\n", err.Name())
		return 0
	})
	if out := expectOK(t, st, out); out != "wrote 10\nthen EFBIG\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestRlimitNofile(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		lt.Setrlimit(sys.RLIMIT_NOFILE, sys.Rlimit{Cur: 5, Max: 5})
		// fds 0,1,2 are open; 3,4 fit; the next fails.
		a, e1 := lt.Open("/etc/passwd", sys.O_RDONLY, 0)
		b, e2 := lt.Open("/etc/passwd", sys.O_RDONLY, 0)
		_, e3 := lt.Open("/etc/passwd", sys.O_RDONLY, 0)
		lt.Printf("%d:%v %d:%v %v\n", a, e1 == sys.OK, b, e2 == sys.OK, e3.Name())
		return 0
	})
	if out := expectOK(t, st, out); out != "3:true 4:true EMFILE\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestSignalDefaultTerminates(t *testing.T) {
	st, _ := runFn(t, func(lt *libc.T) int {
		lt.Kill(lt.Getpid(), sys.SIGTERM)
		lt.Printf("survived?!\n")
		return 0
	})
	if sys.WIfExited(st) || sys.WTermSig(st) != sys.SIGTERM {
		t.Fatalf("status = %#x", st)
	}
}

func TestSignalIgnoredDoesNothing(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		lt.Ignore(sys.SIGTERM)
		lt.Kill(lt.Getpid(), sys.SIGTERM)
		lt.Printf("survived\n")
		return 0
	})
	if out := expectOK(t, st, out); out != "survived\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestSignalHandlerMask(t *testing.T) {
	// A handler's signal is blocked while it runs: a nested kill of the
	// same signal is deferred, not recursive.
	st, out := runFn(t, func(lt *libc.T) int {
		depth, max := 0, 0
		var count int
		lt.Signal(sys.SIGUSR1, func(ht *libc.T, sig int) {
			depth++
			if depth > max {
				max = depth
			}
			count++
			if count == 1 {
				ht.Kill(ht.Getpid(), sys.SIGUSR1) // deferred until return
			}
			depth--
		})
		lt.Kill(lt.Getpid(), sys.SIGUSR1)
		lt.Printf("count=%d max-depth=%d\n", count, max)
		return 0
	})
	if out := expectOK(t, st, out); out != "count=2 max-depth=1\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestSigpause(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		got := 0
		lt.Signal(sys.SIGUSR2, func(*libc.T, int) { got++ })
		// Block the signal until Sigpause unblocks it atomically: left
		// unblocked, a child's kill that lands before fork returns is
		// delivered at fork's exit, and Sigpause waits forever.
		lt.Sigblock(sys.SigMask(sys.SIGUSR2))
		pid, _ := lt.Fork(func(ct *libc.T) {
			ct.Kill(ct.Getppid(), sys.SIGUSR2)
			ct.Exit(0)
		})
		lt.Sigpause(0)
		lt.Waitpid(pid)
		lt.Printf("got=%d\n", got)
		return 0
	})
	if out := expectOK(t, st, out); out != "got=1\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestKillProcessGroup(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		lt.Syscall(sys.SYS_setpgrp, 0, 0) // own group
		done := make(chan struct{})       // host-side sync is fine in tests
		_ = done
		var pids []int
		for i := 0; i < 3; i++ {
			pid, _ := lt.Fork(func(ct *libc.T) {
				for {
					ct.Sigpause(0) // wait to be killed
				}
			})
			pids = append(pids, pid)
		}
		lt.Kill(0, sys.SIGKILL) // kill own process group... including self!
		lt.Printf("unreachable\n")
		return 0
	})
	// The whole group, including pid 1, dies by SIGKILL.
	if sys.WIfExited(st) || sys.WTermSig(st) != sys.SIGKILL {
		t.Fatalf("status = %#x out=%q", st, out)
	}
}

func TestZombieReaping(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		pid, _ := lt.Fork(func(ct *libc.T) { ct.Exit(5) })
		// The child becomes a zombie until waited for.
		wpid, status, err := lt.Waitpid(pid)
		if err != sys.OK || wpid != pid || sys.WExitStatus(status) != 5 {
			return 1
		}
		// Waiting again: no children left.
		_, _, err = lt.Wait()
		lt.Printf("%s\n", err.Name())
		return 0
	})
	if out := expectOK(t, st, out); out != "ECHILD\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestWaitWNOHANG(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		blocked := make(chan struct{})
		_ = blocked
		pid, _ := lt.Fork(func(ct *libc.T) {
			ct.Sigpause(0) // stay alive until killed
			ct.Exit(0)
		})
		wpid, _, err := lt.Wait4(pid, sys.WNOHANG)
		lt.Printf("nohang=%d err=%v\n", wpid, err == sys.OK)
		lt.Kill(pid, sys.SIGKILL)
		wpid, status, _ := lt.Waitpid(pid)
		lt.Printf("reaped=%v killed=%v\n", wpid == pid, sys.WTermSig(status) == sys.SIGKILL)
		return 0
	})
	if out := expectOK(t, st, out); out != "nohang=0 err=true\nreaped=true killed=true\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestPipeEPIPE(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		r, w, _ := lt.Pipe()
		lt.Ignore(sys.SIGPIPE)
		lt.Close(r)
		_, err := lt.Write(w, []byte("x"))
		lt.Printf("%s\n", err.Name())
		return 0
	})
	if out := expectOK(t, st, out); out != "EPIPE\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestPipeSIGPIPEKills(t *testing.T) {
	st, _ := runFn(t, func(lt *libc.T) int {
		r, w, _ := lt.Pipe()
		lt.Close(r)
		lt.Write(w, []byte("x"))
		return 0
	})
	if sys.WIfExited(st) || sys.WTermSig(st) != sys.SIGPIPE {
		t.Fatalf("status = %#x", st)
	}
}

func TestPipeBlocksAndFills(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		r, w, _ := lt.Pipe()
		// Child drains slowly; parent writes more than the pipe buffer.
		total := sys.PipeBuf * 3
		pid, _ := lt.Fork(func(ct *libc.T) {
			ct.Close(w)
			got := 0
			b := make([]byte, 1000)
			for {
				n, _ := ct.Read(r, b)
				if n == 0 {
					break
				}
				got += n
			}
			ct.Printf("drained %d\n", got)
			ct.Exit(0)
		})
		lt.Close(r)
		chunk := make([]byte, 4096)
		sent := 0
		for sent < total {
			n, err := lt.Write(w, chunk)
			if err != sys.OK {
				return 1
			}
			sent += n
		}
		lt.Close(w)
		lt.Waitpid(pid)
		return 0
	})
	if out := expectOK(t, st, out); !strings.Contains(out, "drained 12288") {
		t.Fatalf("out = %q", out)
	}
}

func TestChrootConfines(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		lt.MkdirAll("/jail/sub", 0o755)
		lt.WriteFile("/jail/inside.txt", []byte("in"), 0o644)
		if err := lt.Chroot("/jail"); err != sys.OK {
			lt.Printf("chroot: %v\n", err)
			return 1
		}
		if _, err := lt.Stat("/inside.txt"); err != sys.OK {
			lt.Printf("inside missing: %v\n", err)
			return 1
		}
		if _, err := lt.Stat("/etc/passwd"); err != sys.ENOENT {
			lt.Printf("escape via absolute path\n")
			return 1
		}
		if _, err := lt.Stat("/../../etc/passwd"); err != sys.ENOENT {
			lt.Printf("escape via dotdot\n")
			return 1
		}
		lt.Printf("confined\n")
		return 0
	})
	if out := expectOK(t, st, out); out != "confined\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestChrootRequiresRoot(t *testing.T) {
	reg := image.NewRegistry()
	reg.Register("main", libc.Main(func(lt *libc.T) int {
		if err := lt.Chroot("/tmp"); err != sys.EPERM {
			return 1
		}
		return 0
	}))
	k := kernel.New(reg)
	k.InstallProgram("/bin/main", "main")
	p := k.NewProc()
	p.SetCreds(100, 100)
	p.OpenConsole()
	if err := p.Start("/bin/main", []string{"main"}, nil); err != nil {
		t.Fatal(err)
	}
	if st := k.WaitExit(p); sys.WExitStatus(st) != 0 {
		t.Fatalf("status %#x", st)
	}
}

func TestSetuidSemantics(t *testing.T) {
	reg := image.NewRegistry()
	reg.Register("main", libc.Main(func(lt *libc.T) int {
		if lt.Geteuid() != 0 {
			return 1
		}
		if _, err := lt.Syscall(sys.SYS_setuid, 100); err != sys.OK {
			return 2
		}
		if lt.Getuid() != 100 || lt.Geteuid() != 100 {
			return 3
		}
		// Once dropped, privileges cannot be regained.
		if _, err := lt.Syscall(sys.SYS_setuid, 0); err != sys.EPERM {
			return 4
		}
		return 0
	}))
	k := kernel.New(reg)
	k.InstallProgram("/bin/main", "main")
	p, _ := k.Spawn("/bin/main", []string{"main"}, nil)
	if st := k.WaitExit(p); sys.WExitStatus(st) != 0 {
		t.Fatalf("status %#x", st)
	}
}

func TestSetuidExecBit(t *testing.T) {
	// A set-uid-root image raises the effective uid of an unprivileged
	// process across exec.
	reg := image.NewRegistry()
	reg.Register("main", libc.Main(func(lt *libc.T) int {
		lt.Exec("/bin/privileged", []string{"privileged"}, nil)
		return 9
	}))
	reg.Register("privileged", libc.Main(func(lt *libc.T) int {
		lt.Printf("uid=%d euid=%d\n", lt.Getuid(), lt.Geteuid())
		return 0
	}))
	k := kernel.New(reg)
	k.InstallProgram("/bin/main", "main")
	k.InstallProgram("/bin/privileged", "privileged")
	// Mark the image set-uid root.
	ip, err := k.FS().Lookup(k.FS().Root(), "/bin/privileged", rootCredForTest(), true)
	if err != sys.OK {
		t.Fatal(err)
	}
	k.FS().Chmod(ip, 0o4755, rootCredForTest())

	p := k.NewProc()
	p.SetCreds(100, 100)
	p.OpenConsole()
	if err := p.Start("/bin/main", []string{"main"}, nil); err != nil {
		t.Fatal(err)
	}
	st := k.WaitExit(p)
	out := k.Console().TakeOutput()
	if sys.WExitStatus(st) != 0 || out != "uid=100 euid=0\n" {
		t.Fatalf("%#x %q", st, out)
	}
}

func TestFlockExclusion(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		lt.WriteFile("/tmp/lockfile", nil, 0o644)
		fd, _ := lt.Open("/tmp/lockfile", sys.O_RDWR, 0)
		lt.Flock(fd, sys.LOCK_EX)
		// The pipe sequences parent and child: the parent keeps the lock
		// until the child has seen its non-blocking attempt fail.
		r, w, _ := lt.Pipe()
		pid, _ := lt.Fork(func(ct *libc.T) {
			ct.Close(r)
			fd2, _ := ct.Open("/tmp/lockfile", sys.O_RDWR, 0)
			if err := ct.Flock(fd2, sys.LOCK_EX|sys.LOCK_NB); err != sys.EAGAIN {
				ct.Printf("NB lock got %v\n", err)
				ct.Exit(1)
			}
			ct.Write(w, []byte("x"))
			// The blocking acquire succeeds once the parent unlocks.
			ct.Flock(fd2, sys.LOCK_EX)
			ct.Printf("child locked\n")
			ct.Exit(0)
		})
		lt.Close(w)
		lt.Read(r, make([]byte, 1)) // wait for the child's failed probe
		lt.Flock(fd, sys.LOCK_UN)
		_, status, _ := lt.Waitpid(pid)
		lt.Printf("child=%d\n", sys.WExitStatus(status))
		return 0
	})
	out = expectOK(t, st, out)
	if !strings.Contains(out, "child locked") || !strings.Contains(out, "child=0") {
		t.Fatalf("out = %q", out)
	}
}

func TestGetdirentriesPagination(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		lt.MkdirAll("/big", 0o755)
		for i := 0; i < 100; i++ {
			lt.WriteFile("/big/file"+itoa(i), nil, 0o644)
		}
		names, err := lt.ReadDir("/big")
		if err != sys.OK {
			return 1
		}
		lt.Printf("count=%d\n", len(names))
		return 0
	})
	if out := expectOK(t, st, out); out != "count=100\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestDevices(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		// /dev/null swallows and yields EOF.
		fd, _ := lt.Open("/dev/null", sys.O_RDWR, 0)
		n, _ := lt.Write(fd, []byte("discard"))
		b := make([]byte, 8)
		m, _ := lt.Read(fd, b)
		lt.Printf("null %d %d\n", n, m)
		lt.Close(fd)
		// /dev/zero reads zeroes.
		fd, _ = lt.Open("/dev/zero", sys.O_RDONLY, 0)
		b = []byte{9, 9, 9}
		lt.Read(fd, b)
		lt.Printf("zero %d %d %d\n", b[0], b[1], b[2])
		return 0
	})
	if out := expectOK(t, st, out); out != "null 7 0\nzero 0 0 0\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestConsoleInput(t *testing.T) {
	st, out := runFnSetup(t, func(k *kernel.Kernel) {
		k.Console().Feed("typed input\n")
		k.Console().FeedEOF()
	}, func(lt *libc.T) int {
		line, ok := lt.Stdin.ReadLine()
		lt.Printf("got %v %q\n", ok, line)
		return 0
	})
	if out := expectOK(t, st, out); out != "got true \"typed input\"\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestHostnameAndPagesize(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		h, _ := lt.Gethostname()
		rv, _ := lt.Syscall(sys.SYS_getpagesize)
		rv2, _ := lt.Syscall(sys.SYS_getdtablesize)
		lt.Printf("%s %d %d\n", h, rv[0], rv2[0])
		return 0
	})
	if out := expectOK(t, st, out); out != "interpose.sim 4096 64\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestSettimeofday(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		before, _ := lt.Gettimeofday()
		// Jump a day ahead.
		addr := lt.Malloc(sys.TimevalSize)
		var b [sys.TimevalSize]byte
		sys.Timeval{Sec: before.Sec + 86400}.Encode(b[:])
		lt.Proc().CopyOut(addr, b[:])
		if _, err := lt.Syscall(sys.SYS_settimeofday, addr, 0); err != sys.OK {
			return 1
		}
		after, _ := lt.Gettimeofday()
		diff := int64(after.Sec) - int64(before.Sec)
		lt.Printf("jumped=%v\n", diff > 86000 && diff < 87000)
		return 0
	})
	if out := expectOK(t, st, out); out != "jumped=true\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestRusageCountsSyscalls(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		for i := 0; i < 100; i++ {
			lt.Getpid()
		}
		ru, err := lt.Getrusage(sys.RUSAGE_SELF)
		if err != sys.OK {
			return 1
		}
		lt.Printf("enough=%v\n", ru.Nsyscall >= 100)
		return 0
	})
	if out := expectOK(t, st, out); out != "enough=true\n" {
		t.Fatalf("out = %q", out)
	}
}

// TestWaitRusageMaxrss pins that a reaped child's Maxrss is the resident
// size it exited with, although exit returns the child's pages for reuse
// before the parent reaps it. The child touches eight fresh heap pages,
// reads its own Maxrss and exits with it (in pages) as its status, issuing
// no further call that could touch memory; wait4 and getrusage
// (RUSAGE_CHILDREN) in the parent must both report the same figure.
func TestWaitRusageMaxrss(t *testing.T) {
	const touched = 8
	st, out := runFn(t, func(lt *libc.T) int {
		pid, err := lt.Fork(func(ct *libc.T) {
			heap := ct.Malloc(touched * sys.PageSize)
			ct.Proc().CopyOut(heap, make([]byte, touched*sys.PageSize))
			ct.Getrusage(sys.RUSAGE_SELF) // touch the result buffer first
			ru, _ := ct.Getrusage(sys.RUSAGE_SELF)
			ct.Syscall(sys.SYS_exit, sys.Word(ru.Maxrss*1024/sys.PageSize))
		})
		if err != sys.OK {
			return 1
		}
		ruAddr := lt.Malloc(sys.RusageSize)
		stAddr := lt.Malloc(4)
		if _, err := lt.Syscall(sys.SYS_wait4, sys.Word(pid), stAddr, 0, ruAddr); err != sys.OK {
			return 2
		}
		var b [sys.RusageSize]byte
		lt.Proc().CopyIn(ruAddr, b[:])
		waitRu := sys.DecodeRusage(b[:])
		var sb [4]byte
		lt.Proc().CopyIn(stAddr, sb[:])
		pages := int(sys.WExitStatus(sys.Word(sb[0]) | sys.Word(sb[1])<<8))
		childRu, _ := lt.Getrusage(sys.RUSAGE_CHILDREN)
		lt.Printf("pages>=touched=%v wait4=%v children=%v\n", pages >= touched,
			int(waitRu.Maxrss) == pages*sys.PageSize/1024,
			int(childRu.Maxrss) == pages*sys.PageSize/1024)
		return 0
	})
	if out := expectOK(t, st, out); out != "pages>=touched=true wait4=true children=true\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestInterpreterChain(t *testing.T) {
	// A script whose interpreter is itself a script resolves through the
	// chain (bounded).
	reg := image.NewRegistry()
	reg.Register("real", libc.Main(func(lt *libc.T) int {
		lt.Printf("argv: %v\n", lt.Args)
		return 0
	}))
	k := kernel.New(reg)
	k.InstallProgram("/bin/real", "real")
	k.WriteFile("/bin/wrapper", []byte("#!/bin/real wrapped\n"), 0o755)
	k.WriteFile("/bin/script", []byte("#!/bin/wrapper\nignored body\n"), 0o755)
	p, _ := k.Spawn("/bin/script", []string{"/bin/script", "arg"}, nil)
	st := k.WaitExit(p)
	out := k.Console().TakeOutput()
	if sys.WExitStatus(st) != 0 ||
		out != "argv: [/bin/real wrapped /bin/wrapper /bin/script arg]\n" {
		t.Fatalf("%#x %q", st, out)
	}
}

func TestENOEXEC(t *testing.T) {
	st, out := runFnSetup(t, func(k *kernel.Kernel) {
		k.WriteFile("/bin/garbage", []byte("not an executable"), 0o755)
	}, func(lt *libc.T) int {
		err := lt.Exec("/bin/garbage", []string{"garbage"}, nil)
		lt.Printf("%s\n", err.Name())
		return 0
	})
	if out := expectOK(t, st, out); out != "ENOEXEC\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestExecRequiresExecuteBit(t *testing.T) {
	st, out := runFnSetup(t, func(k *kernel.Kernel) {
		k.WriteFile("/bin/noexec", image.Header("main"), 0o644)
	}, func(lt *libc.T) int {
		err := lt.Exec("/bin/noexec", []string{"noexec"}, nil)
		lt.Printf("%s\n", err.Name())
		return 0
	})
	if out := expectOK(t, st, out); out != "EACCES\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestOrphanReparenting(t *testing.T) {
	st, out := runFn(t, func(lt *libc.T) int {
		// pid 1 forks a child that forks a grandchild and exits; the
		// grandchild is reparented to pid 1.
		pid, _ := lt.Fork(func(ct *libc.T) {
			ct.Fork(func(gt *libc.T) {
				gt.Sigpause(0)
				gt.Exit(0)
			})
			ct.Exit(0)
		})
		lt.Waitpid(pid)
		// The orphan is now our child: getppid from it would be 1.
		gpid := pid + 1
		if err := lt.Kill(gpid, sys.SIGKILL); err != sys.OK {
			lt.Printf("kill orphan: %v\n", err)
			return 1
		}
		wpid, status, err := lt.Wait()
		lt.Printf("reaped=%v sig=%v err=%v\n",
			wpid == gpid, sys.WTermSig(status) == sys.SIGKILL, err == sys.OK)
		return 0
	})
	if out := expectOK(t, st, out); out != "reaped=true sig=true err=true\n" {
		t.Fatalf("out = %q", out)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// rootCredForTest builds the super-user credentials for direct FS pokes.
func rootCredForTest() vfs.Cred { return vfs.Cred{UID: 0, GID: 0} }

// TestShutdownRacesStart: Shutdown exits a not-yet-started process
// directly, and a concurrent Start may be spawning that process's
// goroutine at the same instant. The finishExit election must keep the
// host and the late goroutine from running teardown twice (double
// ProcExit hooks, double exitDone close); run under -race.
func TestShutdownRacesStart(t *testing.T) {
	reg := image.NewRegistry()
	reg.Register("noop", libc.Main(func(lt *libc.T) int { return 0 }))
	for i := 0; i < 200; i++ {
		k := kernel.New(reg)
		if err := k.InstallProgram("/bin/noop", "noop"); err != nil {
			t.Fatal(err)
		}
		p := k.NewProc()
		started := make(chan struct{})
		go func() {
			// The launch may lose the race and target an already-reaped
			// process; only the double-teardown matters here.
			p.Start("/bin/noop", []string{"noop"}, nil)
			close(started)
		}()
		k.Shutdown()
		<-started
		if n := k.ProcCount(); n != 0 {
			t.Fatalf("iter %d: %d procs after shutdown", i, n)
		}
	}
}

// TestDiscardReapsUnstartedProc: a published process whose launch fails
// must be removable without Shutdown, and Discard must leave the table
// empty.
func TestDiscardReapsUnstartedProc(t *testing.T) {
	reg := image.NewRegistry()
	k := kernel.New(reg)
	p := k.NewProc()
	if err := p.Start("/bin/definitely-missing", []string{"x"}, nil); err == nil {
		t.Fatal("start of missing image succeeded")
	}
	k.Discard(p)
	if n := k.ProcCount(); n != 0 {
		t.Fatalf("%d procs after discard", n)
	}
}

// Package trace implements the paper's trace agent (§3.3.2): it traces the
// execution of client processes, printing each system call made and each
// signal received. Like the original, it is built on the symbolic system
// call layer, and — unlike the timex agent — its agent-specific code is
// proportional to the size of the entire system interface: a derived
// method per system call, each printing the call's name and typed
// arguments before taking the default action, and its result after.
//
// Trace output is produced by real write system calls on the client's
// standard error descriptor (two per traced call), which is exactly the
// overhead the paper measures for this agent.
package trace

import (
	"strconv"

	"interpose/internal/core"
	"interpose/internal/sys"
)

// Agent traces every system call and signal of its clients.
type Agent struct {
	core.Symbolic
	fd int // descriptor trace output is written to
}

// New creates a trace agent writing to the client's standard error.
func New() *Agent {
	a := &Agent{fd: 2}
	a.Bind(a)
	a.RegisterAll()
	a.RegisterAllSignals()
	return a
}

// pre prints the call banner before the call executes. Output is
// deliberately unbuffered across system calls so it is not lost if the
// process is killed.
func (a *Agent) pre(c sys.Ctx, format string, args ...any) {
	bp := startLine(c)
	*bp = append(appendf(*bp, format, args...), " ...\n"...)
	a.writeLine(c, bp)
}

// post prints the call result.
func (a *Agent) post(c sys.Ctx, name string, rv sys.Retval, err sys.Errno) {
	bp := startLine(c)
	b := append(append(*bp, "... "...), name...)
	if err != sys.OK {
		b = append(append(b, " -> -1 "...), err.Name()...)
	} else {
		b = strconv.AppendInt(append(b, " -> "...), int64(int32(rv[0])), 10)
	}
	*bp = append(b, '\n')
	a.writeLine(c, bp)
}

// SignalUp prints each signal on its way to the application.
func (a *Agent) SignalUp(c sys.Ctx, sig, code int) int {
	bp := startLine(c)
	*bp = append(append(append(*bp, "signal "...), sys.SignalName(sig)...), '\n')
	a.writeLine(c, bp)
	return sig
}

// SysExit prints the call; exit does not return, so there is no result
// line — matching the original trace output.
func (a *Agent) SysExit(c sys.Ctx, status int) (sys.Retval, sys.Errno) {
	a.pre(c, "exit(%d)", status)
	return a.Symbolic.SysExit(c, status)
}

// SysFork traces fork.
func (a *Agent) SysFork(c sys.Ctx) (sys.Retval, sys.Errno) {
	a.pre(c, "fork()")
	rv, err := a.Symbolic.SysFork(c)
	a.post(c, "fork", rv, err)
	return rv, err
}

// SysRead traces read.
func (a *Agent) SysRead(c sys.Ctx, fd int, buf sys.Word, cnt int) (sys.Retval, sys.Errno) {
	a.pre(c, "read(%d, 0x%x, %d)", fd, buf, cnt)
	rv, err := a.Symbolic.SysRead(c, fd, buf, cnt)
	a.post(c, "read", rv, err)
	return rv, err
}

// SysWrite traces write.
func (a *Agent) SysWrite(c sys.Ctx, fd int, buf sys.Word, cnt int) (sys.Retval, sys.Errno) {
	a.pre(c, "write(%d, 0x%x, %d)", fd, buf, cnt)
	rv, err := a.Symbolic.SysWrite(c, fd, buf, cnt)
	a.post(c, "write", rv, err)
	return rv, err
}

// SysOpen traces open.
func (a *Agent) SysOpen(c sys.Ctx, path string, flags int, mode uint32) (sys.Retval, sys.Errno) {
	a.pre(c, "open(%q, %#x, %#o)", path, flags, mode)
	rv, err := a.Symbolic.SysOpen(c, path, flags, mode)
	a.post(c, "open", rv, err)
	return rv, err
}

// SysClose traces close.
func (a *Agent) SysClose(c sys.Ctx, fd int) (sys.Retval, sys.Errno) {
	a.pre(c, "close(%d)", fd)
	rv, err := a.Symbolic.SysClose(c, fd)
	a.post(c, "close", rv, err)
	return rv, err
}

// SysWait4 traces wait4.
func (a *Agent) SysWait4(c sys.Ctx, pid int, statusAddr sys.Word, options int, ruAddr sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "wait4(%d, 0x%x, %#x, 0x%x)", pid, statusAddr, options, ruAddr)
	rv, err := a.Symbolic.SysWait4(c, pid, statusAddr, options, ruAddr)
	a.post(c, "wait4", rv, err)
	return rv, err
}

// SysCreat traces creat.
func (a *Agent) SysCreat(c sys.Ctx, path string, mode uint32) (sys.Retval, sys.Errno) {
	a.pre(c, "creat(%q, %#o)", path, mode)
	rv, err := a.Symbolic.SysCreat(c, path, mode)
	a.post(c, "creat", rv, err)
	return rv, err
}

// SysLink traces link.
func (a *Agent) SysLink(c sys.Ctx, path, newPath string) (sys.Retval, sys.Errno) {
	a.pre(c, "link(%q, %q)", path, newPath)
	rv, err := a.Symbolic.SysLink(c, path, newPath)
	a.post(c, "link", rv, err)
	return rv, err
}

// SysUnlink traces unlink.
func (a *Agent) SysUnlink(c sys.Ctx, path string) (sys.Retval, sys.Errno) {
	a.pre(c, "unlink(%q)", path)
	rv, err := a.Symbolic.SysUnlink(c, path)
	a.post(c, "unlink", rv, err)
	return rv, err
}

// SysChdir traces chdir.
func (a *Agent) SysChdir(c sys.Ctx, path string) (sys.Retval, sys.Errno) {
	a.pre(c, "chdir(%q)", path)
	rv, err := a.Symbolic.SysChdir(c, path)
	a.post(c, "chdir", rv, err)
	return rv, err
}

// SysFchdir traces fchdir.
func (a *Agent) SysFchdir(c sys.Ctx, fd int) (sys.Retval, sys.Errno) {
	a.pre(c, "fchdir(%d)", fd)
	rv, err := a.Symbolic.SysFchdir(c, fd)
	a.post(c, "fchdir", rv, err)
	return rv, err
}

// SysMknod traces mknod.
func (a *Agent) SysMknod(c sys.Ctx, path string, mode uint32, dev sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "mknod(%q, %#o, %#x)", path, mode, dev)
	rv, err := a.Symbolic.SysMknod(c, path, mode, dev)
	a.post(c, "mknod", rv, err)
	return rv, err
}

// SysChmod traces chmod.
func (a *Agent) SysChmod(c sys.Ctx, path string, mode uint32) (sys.Retval, sys.Errno) {
	a.pre(c, "chmod(%q, %#o)", path, mode)
	rv, err := a.Symbolic.SysChmod(c, path, mode)
	a.post(c, "chmod", rv, err)
	return rv, err
}

// SysChown traces chown.
func (a *Agent) SysChown(c sys.Ctx, path string, uid, gid sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "chown(%q, %d, %d)", path, uid, gid)
	rv, err := a.Symbolic.SysChown(c, path, uid, gid)
	a.post(c, "chown", rv, err)
	return rv, err
}

// SysBrk traces brk.
func (a *Agent) SysBrk(c sys.Ctx, addr sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "brk(0x%x)", addr)
	rv, err := a.Symbolic.SysBrk(c, addr)
	a.post(c, "brk", rv, err)
	return rv, err
}

// SysLseek traces lseek.
func (a *Agent) SysLseek(c sys.Ctx, fd int, off int32, whence int) (sys.Retval, sys.Errno) {
	a.pre(c, "lseek(%d, %d, %d)", fd, off, whence)
	rv, err := a.Symbolic.SysLseek(c, fd, off, whence)
	a.post(c, "lseek", rv, err)
	return rv, err
}

// SysGetpid traces getpid.
func (a *Agent) SysGetpid(c sys.Ctx) (sys.Retval, sys.Errno) {
	a.pre(c, "getpid()")
	rv, err := a.Symbolic.SysGetpid(c)
	a.post(c, "getpid", rv, err)
	return rv, err
}

// SysSetuid traces setuid.
func (a *Agent) SysSetuid(c sys.Ctx, uid sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "setuid(%d)", uid)
	rv, err := a.Symbolic.SysSetuid(c, uid)
	a.post(c, "setuid", rv, err)
	return rv, err
}

// SysGetuid traces getuid.
func (a *Agent) SysGetuid(c sys.Ctx) (sys.Retval, sys.Errno) {
	a.pre(c, "getuid()")
	rv, err := a.Symbolic.SysGetuid(c)
	a.post(c, "getuid", rv, err)
	return rv, err
}

// SysGeteuid traces geteuid.
func (a *Agent) SysGeteuid(c sys.Ctx) (sys.Retval, sys.Errno) {
	a.pre(c, "geteuid()")
	rv, err := a.Symbolic.SysGeteuid(c)
	a.post(c, "geteuid", rv, err)
	return rv, err
}

// SysAccess traces access.
func (a *Agent) SysAccess(c sys.Ctx, path string, mode int) (sys.Retval, sys.Errno) {
	a.pre(c, "access(%q, %d)", path, mode)
	rv, err := a.Symbolic.SysAccess(c, path, mode)
	a.post(c, "access", rv, err)
	return rv, err
}

// SysSync traces sync.
func (a *Agent) SysSync(c sys.Ctx) (sys.Retval, sys.Errno) {
	a.pre(c, "sync()")
	rv, err := a.Symbolic.SysSync(c)
	a.post(c, "sync", rv, err)
	return rv, err
}

// SysKill traces kill.
func (a *Agent) SysKill(c sys.Ctx, pid, sig int) (sys.Retval, sys.Errno) {
	a.pre(c, "kill(%d, %s)", pid, sys.SignalName(sig))
	rv, err := a.Symbolic.SysKill(c, pid, sig)
	a.post(c, "kill", rv, err)
	return rv, err
}

// SysStat traces stat.
func (a *Agent) SysStat(c sys.Ctx, path string, statAddr sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "stat(%q, 0x%x)", path, statAddr)
	rv, err := a.Symbolic.SysStat(c, path, statAddr)
	a.post(c, "stat", rv, err)
	return rv, err
}

// SysGetppid traces getppid.
func (a *Agent) SysGetppid(c sys.Ctx) (sys.Retval, sys.Errno) {
	a.pre(c, "getppid()")
	rv, err := a.Symbolic.SysGetppid(c)
	a.post(c, "getppid", rv, err)
	return rv, err
}

// SysLstat traces lstat.
func (a *Agent) SysLstat(c sys.Ctx, path string, statAddr sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "lstat(%q, 0x%x)", path, statAddr)
	rv, err := a.Symbolic.SysLstat(c, path, statAddr)
	a.post(c, "lstat", rv, err)
	return rv, err
}

// SysDup traces dup.
func (a *Agent) SysDup(c sys.Ctx, fd int) (sys.Retval, sys.Errno) {
	a.pre(c, "dup(%d)", fd)
	rv, err := a.Symbolic.SysDup(c, fd)
	a.post(c, "dup", rv, err)
	return rv, err
}

// SysPipe traces pipe, showing both returned descriptors.
func (a *Agent) SysPipe(c sys.Ctx) (sys.Retval, sys.Errno) {
	a.pre(c, "pipe()")
	rv, err := a.Symbolic.SysPipe(c)
	if err == sys.OK {
		bp := startLine(c)
		b := strconv.AppendUint(append(*bp, "... pipe -> ["...), uint64(rv[0]), 10)
		b = strconv.AppendUint(append(b, ", "...), uint64(rv[1]), 10)
		*bp = append(b, "]\n"...)
		a.writeLine(c, bp)
	} else {
		a.post(c, "pipe", rv, err)
	}
	return rv, err
}

// SysGetegid traces getegid.
func (a *Agent) SysGetegid(c sys.Ctx) (sys.Retval, sys.Errno) {
	a.pre(c, "getegid()")
	rv, err := a.Symbolic.SysGetegid(c)
	a.post(c, "getegid", rv, err)
	return rv, err
}

// SysGetgid traces getgid.
func (a *Agent) SysGetgid(c sys.Ctx) (sys.Retval, sys.Errno) {
	a.pre(c, "getgid()")
	rv, err := a.Symbolic.SysGetgid(c)
	a.post(c, "getgid", rv, err)
	return rv, err
}

// SysIoctl traces ioctl.
func (a *Agent) SysIoctl(c sys.Ctx, fd int, req, arg sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "ioctl(%d, 0x%x, 0x%x)", fd, req, arg)
	rv, err := a.Symbolic.SysIoctl(c, fd, req, arg)
	a.post(c, "ioctl", rv, err)
	return rv, err
}

// SysSymlink traces symlink.
func (a *Agent) SysSymlink(c sys.Ctx, target, linkPath string) (sys.Retval, sys.Errno) {
	a.pre(c, "symlink(%q, %q)", target, linkPath)
	rv, err := a.Symbolic.SysSymlink(c, target, linkPath)
	a.post(c, "symlink", rv, err)
	return rv, err
}

// SysReadlink traces readlink.
func (a *Agent) SysReadlink(c sys.Ctx, path string, buf sys.Word, n int) (sys.Retval, sys.Errno) {
	a.pre(c, "readlink(%q, 0x%x, %d)", path, buf, n)
	rv, err := a.Symbolic.SysReadlink(c, path, buf, n)
	a.post(c, "readlink", rv, err)
	return rv, err
}

// SysExecve traces execve; on success the call does not return.
func (a *Agent) SysExecve(c sys.Ctx, path string, argvAddr, envpAddr sys.Word) (sys.Retval, sys.Errno) {
	argv, _ := core.ReadWordVec(c, argvAddr)
	a.pre(c, "execve(%q, %q, 0x%x)", path, argv, envpAddr)
	rv, err := a.Symbolic.SysExecve(c, path, argvAddr, envpAddr)
	a.post(c, "execve", rv, err)
	return rv, err
}

// SysUmask traces umask.
func (a *Agent) SysUmask(c sys.Ctx, mask uint32) (sys.Retval, sys.Errno) {
	a.pre(c, "umask(%#o)", mask)
	rv, err := a.Symbolic.SysUmask(c, mask)
	a.post(c, "umask", rv, err)
	return rv, err
}

// SysChroot traces chroot.
func (a *Agent) SysChroot(c sys.Ctx, path string) (sys.Retval, sys.Errno) {
	a.pre(c, "chroot(%q)", path)
	rv, err := a.Symbolic.SysChroot(c, path)
	a.post(c, "chroot", rv, err)
	return rv, err
}

// SysFstat traces fstat.
func (a *Agent) SysFstat(c sys.Ctx, fd int, statAddr sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "fstat(%d, 0x%x)", fd, statAddr)
	rv, err := a.Symbolic.SysFstat(c, fd, statAddr)
	a.post(c, "fstat", rv, err)
	return rv, err
}

// SysGetpagesize traces getpagesize.
func (a *Agent) SysGetpagesize(c sys.Ctx) (sys.Retval, sys.Errno) {
	a.pre(c, "getpagesize()")
	rv, err := a.Symbolic.SysGetpagesize(c)
	a.post(c, "getpagesize", rv, err)
	return rv, err
}

// SysGetgroups traces getgroups.
func (a *Agent) SysGetgroups(c sys.Ctx, n int, addr sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "getgroups(%d, 0x%x)", n, addr)
	rv, err := a.Symbolic.SysGetgroups(c, n, addr)
	a.post(c, "getgroups", rv, err)
	return rv, err
}

// SysSetgroups traces setgroups.
func (a *Agent) SysSetgroups(c sys.Ctx, n int, addr sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "setgroups(%d, 0x%x)", n, addr)
	rv, err := a.Symbolic.SysSetgroups(c, n, addr)
	a.post(c, "setgroups", rv, err)
	return rv, err
}

// SysGetpgrp traces getpgrp.
func (a *Agent) SysGetpgrp(c sys.Ctx, pid int) (sys.Retval, sys.Errno) {
	a.pre(c, "getpgrp(%d)", pid)
	rv, err := a.Symbolic.SysGetpgrp(c, pid)
	a.post(c, "getpgrp", rv, err)
	return rv, err
}

// SysSetpgrp traces setpgrp.
func (a *Agent) SysSetpgrp(c sys.Ctx, pid, pgrp int) (sys.Retval, sys.Errno) {
	a.pre(c, "setpgrp(%d, %d)", pid, pgrp)
	rv, err := a.Symbolic.SysSetpgrp(c, pid, pgrp)
	a.post(c, "setpgrp", rv, err)
	return rv, err
}

// SysGethostname traces gethostname.
func (a *Agent) SysGethostname(c sys.Ctx, addr sys.Word, n int) (sys.Retval, sys.Errno) {
	a.pre(c, "gethostname(0x%x, %d)", addr, n)
	rv, err := a.Symbolic.SysGethostname(c, addr, n)
	a.post(c, "gethostname", rv, err)
	return rv, err
}

// SysSethostname traces sethostname.
func (a *Agent) SysSethostname(c sys.Ctx, addr sys.Word, n int) (sys.Retval, sys.Errno) {
	a.pre(c, "sethostname(0x%x, %d)", addr, n)
	rv, err := a.Symbolic.SysSethostname(c, addr, n)
	a.post(c, "sethostname", rv, err)
	return rv, err
}

// SysGetdtablesize traces getdtablesize.
func (a *Agent) SysGetdtablesize(c sys.Ctx) (sys.Retval, sys.Errno) {
	a.pre(c, "getdtablesize()")
	rv, err := a.Symbolic.SysGetdtablesize(c)
	a.post(c, "getdtablesize", rv, err)
	return rv, err
}

// SysDup2 traces dup2.
func (a *Agent) SysDup2(c sys.Ctx, oldfd, newfd int) (sys.Retval, sys.Errno) {
	a.pre(c, "dup2(%d, %d)", oldfd, newfd)
	rv, err := a.Symbolic.SysDup2(c, oldfd, newfd)
	a.post(c, "dup2", rv, err)
	return rv, err
}

// SysFcntl traces fcntl.
func (a *Agent) SysFcntl(c sys.Ctx, fd, cmd int, arg sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "fcntl(%d, %d, 0x%x)", fd, cmd, arg)
	rv, err := a.Symbolic.SysFcntl(c, fd, cmd, arg)
	a.post(c, "fcntl", rv, err)
	return rv, err
}

// SysFsync traces fsync.
func (a *Agent) SysFsync(c sys.Ctx, fd int) (sys.Retval, sys.Errno) {
	a.pre(c, "fsync(%d)", fd)
	rv, err := a.Symbolic.SysFsync(c, fd)
	a.post(c, "fsync", rv, err)
	return rv, err
}

// SysSigvec traces sigvec.
func (a *Agent) SysSigvec(c sys.Ctx, sig int, nsv, osv sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "sigvec(%s, 0x%x, 0x%x)", sys.SignalName(sig), nsv, osv)
	rv, err := a.Symbolic.SysSigvec(c, sig, nsv, osv)
	a.post(c, "sigvec", rv, err)
	return rv, err
}

// SysSigblock traces sigblock.
func (a *Agent) SysSigblock(c sys.Ctx, mask uint32) (sys.Retval, sys.Errno) {
	a.pre(c, "sigblock(%#x)", mask)
	rv, err := a.Symbolic.SysSigblock(c, mask)
	a.post(c, "sigblock", rv, err)
	return rv, err
}

// SysSigsetmask traces sigsetmask.
func (a *Agent) SysSigsetmask(c sys.Ctx, mask uint32) (sys.Retval, sys.Errno) {
	a.pre(c, "sigsetmask(%#x)", mask)
	rv, err := a.Symbolic.SysSigsetmask(c, mask)
	a.post(c, "sigsetmask", rv, err)
	return rv, err
}

// SysSigpause traces sigpause.
func (a *Agent) SysSigpause(c sys.Ctx, mask uint32) (sys.Retval, sys.Errno) {
	a.pre(c, "sigpause(%#x)", mask)
	rv, err := a.Symbolic.SysSigpause(c, mask)
	a.post(c, "sigpause", rv, err)
	return rv, err
}

// SysGettimeofday traces gettimeofday.
func (a *Agent) SysGettimeofday(c sys.Ctx, tv, tz sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "gettimeofday(0x%x, 0x%x)", tv, tz)
	rv, err := a.Symbolic.SysGettimeofday(c, tv, tz)
	a.post(c, "gettimeofday", rv, err)
	return rv, err
}

// SysGetrusage traces getrusage.
func (a *Agent) SysGetrusage(c sys.Ctx, who, ru sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "getrusage(%d, 0x%x)", int32(who), ru)
	rv, err := a.Symbolic.SysGetrusage(c, who, ru)
	a.post(c, "getrusage", rv, err)
	return rv, err
}

// SysSettimeofday traces settimeofday.
func (a *Agent) SysSettimeofday(c sys.Ctx, tv, tz sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "settimeofday(0x%x, 0x%x)", tv, tz)
	rv, err := a.Symbolic.SysSettimeofday(c, tv, tz)
	a.post(c, "settimeofday", rv, err)
	return rv, err
}

// SysRename traces rename.
func (a *Agent) SysRename(c sys.Ctx, from, to string) (sys.Retval, sys.Errno) {
	a.pre(c, "rename(%q, %q)", from, to)
	rv, err := a.Symbolic.SysRename(c, from, to)
	a.post(c, "rename", rv, err)
	return rv, err
}

// SysTruncate traces truncate.
func (a *Agent) SysTruncate(c sys.Ctx, path string, length int32) (sys.Retval, sys.Errno) {
	a.pre(c, "truncate(%q, %d)", path, length)
	rv, err := a.Symbolic.SysTruncate(c, path, length)
	a.post(c, "truncate", rv, err)
	return rv, err
}

// SysFtruncate traces ftruncate.
func (a *Agent) SysFtruncate(c sys.Ctx, fd int, length int32) (sys.Retval, sys.Errno) {
	a.pre(c, "ftruncate(%d, %d)", fd, length)
	rv, err := a.Symbolic.SysFtruncate(c, fd, length)
	a.post(c, "ftruncate", rv, err)
	return rv, err
}

// SysFlock traces flock.
func (a *Agent) SysFlock(c sys.Ctx, fd, op int) (sys.Retval, sys.Errno) {
	a.pre(c, "flock(%d, %d)", fd, op)
	rv, err := a.Symbolic.SysFlock(c, fd, op)
	a.post(c, "flock", rv, err)
	return rv, err
}

// SysMkdir traces mkdir.
func (a *Agent) SysMkdir(c sys.Ctx, path string, mode uint32) (sys.Retval, sys.Errno) {
	a.pre(c, "mkdir(%q, %#o)", path, mode)
	rv, err := a.Symbolic.SysMkdir(c, path, mode)
	a.post(c, "mkdir", rv, err)
	return rv, err
}

// SysRmdir traces rmdir.
func (a *Agent) SysRmdir(c sys.Ctx, path string) (sys.Retval, sys.Errno) {
	a.pre(c, "rmdir(%q)", path)
	rv, err := a.Symbolic.SysRmdir(c, path)
	a.post(c, "rmdir", rv, err)
	return rv, err
}

// SysUtimes traces utimes.
func (a *Agent) SysUtimes(c sys.Ctx, path string, tvAddr sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "utimes(%q, 0x%x)", path, tvAddr)
	rv, err := a.Symbolic.SysUtimes(c, path, tvAddr)
	a.post(c, "utimes", rv, err)
	return rv, err
}

// SysSetsid traces setsid.
func (a *Agent) SysSetsid(c sys.Ctx) (sys.Retval, sys.Errno) {
	a.pre(c, "setsid()")
	rv, err := a.Symbolic.SysSetsid(c)
	a.post(c, "setsid", rv, err)
	return rv, err
}

// SysGetrlimit traces getrlimit.
func (a *Agent) SysGetrlimit(c sys.Ctx, res int, addr sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "getrlimit(%d, 0x%x)", res, addr)
	rv, err := a.Symbolic.SysGetrlimit(c, res, addr)
	a.post(c, "getrlimit", rv, err)
	return rv, err
}

// SysSetrlimit traces setrlimit.
func (a *Agent) SysSetrlimit(c sys.Ctx, res int, addr sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "setrlimit(%d, 0x%x)", res, addr)
	rv, err := a.Symbolic.SysSetrlimit(c, res, addr)
	a.post(c, "setrlimit", rv, err)
	return rv, err
}

// SysGetdirentries traces getdirentries.
func (a *Agent) SysGetdirentries(c sys.Ctx, fd int, buf sys.Word, nbytes int, basep sys.Word) (sys.Retval, sys.Errno) {
	a.pre(c, "getdirentries(%d, 0x%x, %d, 0x%x)", fd, buf, nbytes, basep)
	rv, err := a.Symbolic.SysGetdirentries(c, fd, buf, nbytes, basep)
	a.post(c, "getdirentries", rv, err)
	return rv, err
}

// UnknownSyscall traces calls outside the implemented interface.
func (a *Agent) UnknownSyscall(c sys.Ctx, num int, aa sys.Args) (sys.Retval, sys.Errno) {
	a.pre(c, "%s(0x%x, 0x%x, 0x%x)", sys.SyscallName(num), aa[0], aa[1], aa[2])
	rv, err := a.Symbolic.UnknownSyscall(c, num, aa)
	a.post(c, sys.SyscallName(num), rv, err)
	return rv, err
}

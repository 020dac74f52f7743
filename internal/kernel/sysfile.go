package kernel

import (
	"time"

	"interpose/internal/sys"
	"interpose/internal/vfs"
)

func (k *Kernel) sysOpen(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	path, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	flags := int(a[1])
	mode := a[2]
	fd, err := k.openPath(p, path, flags, mode)
	k.trace(p, "open", path, "", fd, err)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	return sys.Retval{sys.Word(fd)}, sys.OK
}

// openPath implements the open system call given a decoded path.
func (k *Kernel) openPath(p *Proc, path string, flags int, mode sys.Word) (int, sys.Errno) {
	cred := p.cred()
	var ip *vfs.Inode
	if flags&sys.O_CREAT != 0 {
		for {
			dir, name, existing, err := k.nameiParent(p, path)
			if err != sys.OK {
				return -1, err
			}
			if existing != nil && existing.IsSymlink() {
				// Follow the link for open-with-create of an existing name.
				existing, err = k.namei(p, path, true)
				if err != sys.OK {
					return -1, err
				}
			}
			if existing == nil {
				ip, err = k.fs.Create(dir, name, mode&0o7777&^p.umaskVal(), cred)
				if err == sys.EEXIST && flags&sys.O_EXCL == 0 {
					// Lost a create race with another process: go around
					// and open whatever won.
					continue
				}
				if err != sys.OK {
					return -1, err
				}
			} else if flags&sys.O_EXCL != 0 {
				return -1, sys.EEXIST
			} else {
				ip = existing
			}
			break
		}
	} else {
		var err sys.Errno
		ip, err = k.namei(p, path, true)
		if err != sys.OK {
			return -1, err
		}
	}

	acc := flags & sys.O_ACCMODE
	var want int
	if acc == sys.O_RDONLY || acc == sys.O_RDWR {
		want |= sys.R_OK
	}
	if acc == sys.O_WRONLY || acc == sys.O_RDWR {
		want |= sys.W_OK
	}
	if ip.IsDir() && want&sys.W_OK != 0 {
		return -1, sys.EISDIR
	}
	if e := k.fs.Access(ip, want, cred); e != sys.OK {
		return -1, e
	}
	if flags&sys.O_TRUNC != 0 && ip.Type() == sys.S_IFREG {
		if e := ip.Truncate(0); e != sys.OK {
			return -1, e
		}
	}

	p.fdMu.Lock()
	defer p.fdMu.Unlock()
	fd, e := p.allocFDLocked(0)
	if e != sys.OK {
		return -1, e
	}
	f := &File{ip: ip, flags: flags &^ (sys.O_CREAT | sys.O_TRUNC | sys.O_EXCL)}
	p.installFDLocked(fd, f, false)
	return fd, sys.OK
}

func (k *Kernel) sysClose(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	p.fdMu.Lock()
	err := p.closeFDLocked(int(a[0]))
	p.fdMu.Unlock()
	k.trace(p, "close", "", "", int(a[0]), err)
	return sys.Retval{}, err
}

func (k *Kernel) sysRead(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	fd, bufAddr := int(a[0]), a[1]
	cnt, err := ioCount(a[2])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	f, err := p.file(fd)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	f.mu.Lock()
	flags := f.flags
	ip, off := f.ip, f.off
	f.mu.Unlock()
	if flags&sys.O_ACCMODE == sys.O_WRONLY {
		return sys.Retval{}, sys.EBADF
	}
	if cnt == 0 {
		// A zero-length read reports readiness, never blocks.
		return sys.Retval{0}, sys.OK
	}
	if f.pipe != nil {
		n, err := k.pipeRead(p, f.pipe, cnt, bufAddr, flags)
		return sys.Retval{sys.Word(n)}, err
	}

	bp, buf := getIOBuf(cnt)
	defer putIOBuf(bp)
	var n int
	for {
		var e sys.Errno
		n, e = ip.ReadAt(buf, off)
		if e == sys.EAGAIN && flags&sys.O_NONBLOCK == 0 {
			// Blocking device (tty with no input): wait on the device's
			// own queue and retry.
			bd, ok := ip.Device().(blockingDevice)
			if !ok {
				return sys.Retval{}, e
			}
			if e = bd.WaitInput(p); e != sys.OK {
				return sys.Retval{}, e
			}
			continue
		}
		if e != sys.OK {
			return sys.Retval{}, e
		}
		break
	}
	if n > 0 {
		if e := p.CopyOut(bufAddr, buf[:n]); e != sys.OK {
			return sys.Retval{}, e
		}
	}
	if !ip.IsDevice() || deviceSeekable(ip) {
		f.mu.Lock()
		f.off = off + int64(n)
		f.mu.Unlock()
	}
	return sys.Retval{sys.Word(n)}, sys.OK
}

func (k *Kernel) sysWrite(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	fd, bufAddr := int(a[0]), a[1]
	cnt, err := ioCount(a[2])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	bp, buf := getIOBuf(cnt)
	defer putIOBuf(bp)
	if cnt > 0 {
		if e := p.CopyIn(bufAddr, buf); e != sys.OK {
			return sys.Retval{}, e
		}
	}
	f, err := p.file(fd)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	f.mu.Lock()
	flags := f.flags
	ip, off := f.ip, f.off
	f.mu.Unlock()
	if flags&sys.O_ACCMODE == sys.O_RDONLY {
		return sys.Retval{}, sys.EBADF
	}
	if f.pipe != nil {
		n, err := k.pipeWrite(p, f.pipe, buf, flags)
		return sys.Retval{sys.Word(n)}, err
	}
	if flags&sys.O_APPEND != 0 {
		off = ip.Size()
	}
	fsize := int64(p.Rlimit(sys.RLIMIT_FSIZE).Cur)

	n, e := ip.WriteAt(buf, off, fsize)
	if e == sys.EFBIG || (e == sys.OK && n < len(buf) && fsize > 0) {
		k.PostSignal(p, sys.SIGXFSZ)
		if n == 0 {
			return sys.Retval{}, sys.EFBIG
		}
	} else if e != sys.OK {
		return sys.Retval{}, e
	}
	if !ip.IsDevice() || deviceSeekable(ip) {
		f.mu.Lock()
		f.off = off + int64(n)
		f.mu.Unlock()
	}
	return sys.Retval{sys.Word(n)}, sys.OK
}

// pipeRead blocks until data, EOF, or a signal. It takes the pipe's own
// lock; a successful read wakes only this pipe's writers.
func (k *Kernel) pipeRead(p *Proc, pp *Pipe, cnt int, bufAddr sys.Word, flags int) (int, sys.Errno) {
	pp.mu.Lock()
	for {
		if pp.count > 0 {
			// Causal tracing: link this read's span to the last traced
			// writer's span (under pp.mu, same as the data it explains).
			if pp.edgeSpan != 0 && p.curSpan != 0 {
				p.curLink = pp.edgeSpan
			}
			bp, buf := getIOBuf(min(cnt, pp.count))
			n := pp.read(buf)
			pp.writeQ.wakeAll()
			pp.mu.Unlock()
			e := p.CopyOut(bufAddr, buf[:n])
			putIOBuf(bp)
			if e != sys.OK {
				return 0, e
			}
			return n, sys.OK
		}
		if pp.writers == 0 {
			pp.mu.Unlock()
			return 0, sys.OK // EOF
		}
		if flags&sys.O_NONBLOCK != 0 {
			pp.mu.Unlock()
			return 0, sys.EAGAIN
		}
		if e := p.sleepOn(&pp.readQ, &pp.mu); e != sys.OK {
			pp.mu.Unlock()
			return 0, e
		}
	}
}

// pipeWrite writes all of buf or fails. It takes the pipe's own lock and
// releases it before posting SIGPIPE — signal posting takes the
// process-table lock, which must never be acquired while holding an
// object lock.
func (k *Kernel) pipeWrite(p *Proc, pp *Pipe, buf []byte, flags int) (int, sys.Errno) {
	pp.mu.Lock()
	// Causal tracing: publish this write's span for the next traced
	// reader. Latest traced writer wins, which matches what a reader
	// draining the buffer most plausibly consumed last.
	if s := p.curSpan; s != 0 {
		pp.edgeSpan = s
	}
	total := 0
	for len(buf) > 0 {
		if pp.readers == 0 {
			pp.mu.Unlock()
			k.PostSignal(p, sys.SIGPIPE)
			return total, sys.EPIPE
		}
		n := pp.write(buf)
		if n > 0 {
			pp.readQ.wakeAll()
			total += n
			buf = buf[n:]
			continue
		}
		if flags&sys.O_NONBLOCK != 0 {
			pp.mu.Unlock()
			if total > 0 {
				return total, sys.OK
			}
			return 0, sys.EAGAIN
		}
		if e := p.sleepOn(&pp.writeQ, &pp.mu); e != sys.OK {
			pp.mu.Unlock()
			if total > 0 {
				return total, sys.OK
			}
			return 0, e
		}
	}
	pp.mu.Unlock()
	return total, sys.OK
}

func (k *Kernel) sysPipe(p *Proc) (sys.Retval, sys.Errno) {
	p.fdMu.Lock()
	defer p.fdMu.Unlock()
	rfd, e := p.allocFDLocked(0)
	if e != sys.OK {
		return sys.Retval{}, e
	}
	pp := newPipe()
	rf := &File{pipe: pp, rdEnd: true, flags: sys.O_RDONLY}
	p.installFDLocked(rfd, rf, false)
	wfd, e := p.allocFDLocked(0)
	if e != sys.OK {
		p.closeFDLocked(rfd)
		return sys.Retval{}, e
	}
	wf := &File{pipe: pp, rdEnd: false, flags: sys.O_WRONLY}
	p.installFDLocked(wfd, wf, false)
	return sys.Retval{sys.Word(rfd), sys.Word(wfd)}, sys.OK
}

func (k *Kernel) sysLseek(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	fd, off, whence := int(a[0]), int64(int32(a[1])), int(a[2])
	f, err := p.file(fd)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	if f.pipe != nil {
		return sys.Retval{}, sys.ESPIPE
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var base int64
	switch whence {
	case sys.SEEK_SET:
		base = 0
	case sys.SEEK_CUR:
		base = f.off
	case sys.SEEK_END:
		base = f.ip.Size()
	default:
		return sys.Retval{}, sys.EINVAL
	}
	pos := base + off
	if pos < 0 {
		return sys.Retval{}, sys.EINVAL
	}
	f.off = pos
	f.dirEOF = false
	k.trace(p, "seek", "", "", fd, sys.OK)
	return sys.Retval{sys.Word(pos)}, sys.OK
}

func (k *Kernel) sysDup(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	p.fdMu.Lock()
	defer p.fdMu.Unlock()
	f, err := p.fileLocked(int(a[0]))
	if err != sys.OK {
		return sys.Retval{}, err
	}
	fd, e := p.allocFDLocked(0)
	if e != sys.OK {
		return sys.Retval{}, e
	}
	p.installFDLocked(fd, f, false)
	return sys.Retval{sys.Word(fd)}, sys.OK
}

func (k *Kernel) sysDup2(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	oldfd, newfd := int(a[0]), int(a[1])
	p.fdMu.Lock()
	defer p.fdMu.Unlock()
	f, err := p.fileLocked(oldfd)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	// 4.3BSD bounds newfd by the descriptor limit, not by the table:
	// dup2 past getdtablesize() — here RLIMIT_NOFILE — is EBADF.
	if newfd < 0 || newfd >= p.fdLimit() {
		return sys.Retval{}, sys.EBADF
	}
	if newfd == oldfd {
		return sys.Retval{sys.Word(newfd)}, sys.OK
	}
	if newfd < len(p.fds) && p.fds[newfd].file != nil {
		p.closeFDLocked(newfd)
	}
	p.installFDLocked(newfd, f, false)
	return sys.Retval{sys.Word(newfd)}, sys.OK
}

func (k *Kernel) sysFcntl(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	fd, cmd, arg := int(a[0]), int(a[1]), a[2]
	p.fdMu.Lock()
	defer p.fdMu.Unlock()
	f, err := p.fileLocked(fd)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	switch cmd {
	case sys.F_DUPFD:
		nfd, e := p.allocFDLocked(int(arg))
		if e != sys.OK {
			return sys.Retval{}, e
		}
		p.installFDLocked(nfd, f, false)
		return sys.Retval{sys.Word(nfd)}, sys.OK
	case sys.F_GETFD:
		var v sys.Word
		if p.fds[fd].cloexec {
			v = sys.FD_CLOEXEC
		}
		return sys.Retval{v}, sys.OK
	case sys.F_SETFD:
		p.fds[fd].cloexec = arg&sys.FD_CLOEXEC != 0
		return sys.Retval{}, sys.OK
	case sys.F_GETFL:
		f.mu.Lock()
		v := sys.Word(f.flags)
		f.mu.Unlock()
		return sys.Retval{v}, sys.OK
	case sys.F_SETFL:
		const settable = sys.O_APPEND | sys.O_NONBLOCK
		f.mu.Lock()
		f.flags = f.flags&^settable | int(arg)&settable
		f.mu.Unlock()
		return sys.Retval{}, sys.OK
	}
	return sys.Retval{}, sys.EINVAL
}

func (k *Kernel) statOut(p *Proc, st sys.Stat, addr sys.Word) sys.Errno {
	var b [sys.StatSize]byte
	st.Encode(b[:])
	return p.CopyOut(addr, b[:])
}

func (k *Kernel) sysStat(p *Proc, a sys.Args, follow bool) (sys.Retval, sys.Errno) {
	path, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	op := "stat"
	if !follow {
		op = "lstat"
	}
	ip, err := k.namei(p, path, follow)
	k.trace(p, op, path, "", -1, err)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	return sys.Retval{}, k.statOut(p, ip.Stat(), a[1])
}

func (k *Kernel) sysFstat(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	f, err := p.file(int(a[0]))
	if err != sys.OK {
		return sys.Retval{}, err
	}
	var st sys.Stat
	if f.pipe != nil {
		st = sys.Stat{Mode: sys.S_IFIFO | 0o600, Nlink: 1, Blksize: sys.PipeBuf}
	} else {
		st = f.ip.Stat()
	}
	return sys.Retval{}, k.statOut(p, st, a[1])
}

func (k *Kernel) sysAccess(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	path, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	// access uses the real, not effective, credentials.
	p.mu.Lock()
	cwd, root := p.cwd, p.root
	p.mu.Unlock()
	ip, err := k.fs.LookupEx(root, cwd, path, p.realCred(), true)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	return sys.Retval{}, k.fs.Access(ip, int(a[1]), p.realCred())
}

func (k *Kernel) sysLink(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	oldPath, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	newPath, err := p.pathArg(a[1])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	target, err := k.namei(p, oldPath, false)
	if err == sys.OK {
		var dir *vfs.Inode
		var name string
		var existing *vfs.Inode
		dir, name, existing, err = k.nameiParent(p, newPath)
		switch {
		case err != sys.OK:
		case existing != nil:
			err = sys.EEXIST
		default:
			err = k.fs.Link(dir, name, target, p.cred())
		}
	}
	k.trace(p, "link", oldPath, newPath, -1, err)
	return sys.Retval{}, err
}

func (k *Kernel) sysUnlink(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	path, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	dir, name, existing, err := k.nameiParent(p, path)
	if err == sys.OK && existing == nil {
		err = sys.ENOENT
	}
	if err == sys.OK {
		err = k.fs.Unlink(dir, name, p.cred())
	}
	k.trace(p, "unlink", path, "", -1, err)
	return sys.Retval{}, err
}

func (k *Kernel) sysSymlink(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	target, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	linkPath, err := p.pathArg(a[1])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	dir, name, existing, err := k.nameiParent(p, linkPath)
	switch {
	case err != sys.OK:
	case existing != nil:
		err = sys.EEXIST
	default:
		_, err = k.fs.Symlink(dir, name, target, p.cred())
	}
	k.trace(p, "symlink", target, linkPath, -1, err)
	return sys.Retval{}, err
}

func (k *Kernel) sysReadlink(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	path, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	ip, err := k.namei(p, path, false)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	target, err := ip.Readlink()
	if err != sys.OK {
		return sys.Retval{}, err
	}
	n := int(a[2])
	if n > len(target) {
		n = len(target)
	}
	if n > 0 {
		if e := p.CopyOut(a[1], []byte(target)[:n]); e != sys.OK {
			return sys.Retval{}, e
		}
	}
	return sys.Retval{sys.Word(n)}, sys.OK
}

func (k *Kernel) sysRename(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	fromPath, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	toPath, err := p.pathArg(a[1])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	fromDir, fromName, existing, err := k.nameiParent(p, fromPath)
	if err == sys.OK && existing == nil {
		err = sys.ENOENT
	}
	if err == sys.OK {
		var toDir *vfs.Inode
		var toName string
		toDir, toName, _, err = k.nameiParent(p, toPath)
		if err == sys.OK {
			err = k.fs.Rename(fromDir, fromName, toDir, toName, p.cred())
		}
	}
	k.trace(p, "rename", fromPath, toPath, -1, err)
	return sys.Retval{}, err
}

func (k *Kernel) sysMkdir(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	path, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	dir, name, existing, err := k.nameiParent(p, path)
	switch {
	case err != sys.OK:
	case existing != nil:
		err = sys.EEXIST
	default:
		_, err = k.fs.Mkdir(dir, name, a[1]&0o7777&^p.umaskVal(), p.cred())
	}
	k.trace(p, "mkdir", path, "", -1, err)
	return sys.Retval{}, err
}

func (k *Kernel) sysRmdir(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	path, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	dir, name, existing, err := k.nameiParent(p, path)
	if err == sys.OK && existing == nil {
		err = sys.ENOENT
	}
	if err == sys.OK {
		err = k.fs.Rmdir(dir, name, p.cred())
	}
	k.trace(p, "rmdir", path, "", -1, err)
	return sys.Retval{}, err
}

func (k *Kernel) sysChmod(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	path, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	ip, err := k.namei(p, path, true)
	if err == sys.OK {
		err = k.fs.Chmod(ip, a[1], p.cred())
	}
	k.trace(p, "chmod", path, "", -1, err)
	return sys.Retval{}, err
}

func (k *Kernel) sysChown(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	path, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	ip, err := k.namei(p, path, true)
	if err == sys.OK {
		err = k.fs.Chown(ip, a[1], a[2], p.cred())
	}
	k.trace(p, "chown", path, "", -1, err)
	return sys.Retval{}, err
}

func (k *Kernel) sysTruncate(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	path, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	ip, err := k.namei(p, path, true)
	if err == sys.OK {
		err = k.fs.Access(ip, sys.W_OK, p.cred())
	}
	if err == sys.OK {
		err = k.checkFsize(p, int64(int32(a[1])))
	}
	if err == sys.OK {
		err = ip.Truncate(int64(int32(a[1])))
	}
	k.trace(p, "truncate", path, "", -1, err)
	return sys.Retval{}, err
}

func (k *Kernel) sysFtruncate(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	f, err := p.file(int(a[0]))
	if err != sys.OK {
		return sys.Retval{}, err
	}
	if f.pipe != nil || f.Flags()&sys.O_ACCMODE == sys.O_RDONLY {
		return sys.Retval{}, sys.EINVAL
	}
	if e := k.checkFsize(p, int64(int32(a[1]))); e != sys.OK {
		return sys.Retval{}, e
	}
	return sys.Retval{}, f.ip.Truncate(int64(int32(a[1])))
}

func (k *Kernel) sysUtimes(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	path, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	ip, err := k.namei(p, path, true)
	if err != sys.OK {
		k.trace(p, "utimes", path, "", -1, err)
		return sys.Retval{}, err
	}
	var at, mt time.Time
	if a[1] == 0 {
		at = k.Now()
		mt = at
	} else {
		var b [2 * sys.TimevalSize]byte
		if e := p.CopyIn(a[1], b[:]); e != sys.OK {
			return sys.Retval{}, e
		}
		atv := sys.DecodeTimeval(b[0:])
		mtv := sys.DecodeTimeval(b[8:])
		at = time.Unix(int64(atv.Sec), int64(atv.Usec)*1000)
		mt = time.Unix(int64(mtv.Sec), int64(mtv.Usec)*1000)
	}
	err = k.fs.Utimes(ip, at, mt, p.cred())
	k.trace(p, "utimes", path, "", -1, err)
	return sys.Retval{}, err
}

func (k *Kernel) sysChdir(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	path, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	ip, err := k.namei(p, path, true)
	if err == sys.OK && !ip.IsDir() {
		err = sys.ENOTDIR
	}
	if err == sys.OK {
		err = k.fs.Access(ip, sys.X_OK, p.cred())
	}
	if err == sys.OK {
		p.mu.Lock()
		p.cwd = ip
		p.mu.Unlock()
	}
	k.trace(p, "chdir", path, "", -1, err)
	return sys.Retval{}, err
}

func (k *Kernel) sysFchdir(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	f, err := p.file(int(a[0]))
	if err != sys.OK {
		return sys.Retval{}, err
	}
	if f.ip == nil || !f.ip.IsDir() {
		return sys.Retval{}, sys.ENOTDIR
	}
	p.mu.Lock()
	p.cwd = f.ip
	p.mu.Unlock()
	return sys.Retval{}, sys.OK
}

func (k *Kernel) sysChroot(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	path, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	if !p.cred().Root() {
		return sys.Retval{}, sys.EPERM
	}
	ip, err := k.namei(p, path, true)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	if !ip.IsDir() {
		return sys.Retval{}, sys.ENOTDIR
	}
	p.mu.Lock()
	p.root = ip
	p.cwd = ip
	p.mu.Unlock()
	return sys.Retval{}, sys.OK
}

func (k *Kernel) sysMknod(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	path, err := p.pathArg(a[0])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	if !p.cred().Root() {
		return sys.Retval{}, sys.EPERM
	}
	mode, rdev := a[1], a[2]
	if mode&sys.S_IFMT != sys.S_IFCHR {
		return sys.Retval{}, sys.EINVAL
	}
	dir, name, existing, err := k.nameiParent(p, path)
	switch {
	case err != sys.OK:
		return sys.Retval{}, err
	case existing != nil:
		return sys.Retval{}, sys.EEXIST
	}
	dev, ok := k.lookupDevice(rdev)
	if !ok {
		return sys.Retval{}, sys.ENXIO
	}
	_, err = k.fs.MkDev(dir, name, mode&0o7777, rdev, dev, p.cred())
	return sys.Retval{}, err
}

func (k *Kernel) sysIoctl(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	f, err := p.file(int(a[0]))
	if err != sys.OK {
		return sys.Retval{}, err
	}
	if f.ip == nil || f.ip.Device() == nil {
		return sys.Retval{}, sys.ENOTTY
	}
	return sys.Retval{}, f.ip.Device().Ioctl(a[1], a[2], p)
}

func (k *Kernel) sysFlock(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	fd, op := int(a[0]), int(a[1])
	f, err := p.file(fd)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	if f.ip == nil {
		return sys.Retval{}, sys.EINVAL
	}
	k.flockMu.Lock()
	defer k.flockMu.Unlock()
	if op&sys.LOCK_UN != 0 {
		if f.lockHeld != 0 {
			unflockLocked(f)
			k.flockQ.wakeAll()
		}
		return sys.Retval{}, sys.OK
	}
	want := op & (sys.LOCK_SH | sys.LOCK_EX)
	if want != sys.LOCK_SH && want != sys.LOCK_EX {
		return sys.Retval{}, sys.EINVAL
	}
	// Converting an existing lock releases it first.
	if f.lockHeld != 0 {
		unflockLocked(f)
		k.flockQ.wakeAll()
	}
	for {
		conflict := f.ip.LockEx || (want == sys.LOCK_EX && f.ip.LockShared > 0)
		if !conflict {
			break
		}
		if op&sys.LOCK_NB != 0 {
			return sys.Retval{}, sys.EAGAIN
		}
		if e := p.sleepOn(&k.flockQ, &k.flockMu); e != sys.OK {
			return sys.Retval{}, e
		}
	}
	if want == sys.LOCK_EX {
		f.ip.LockEx = true
	} else {
		f.ip.LockShared++
	}
	f.lockHeld = want
	return sys.Retval{}, sys.OK
}

func (k *Kernel) sysGetdirentries(p *Proc, a sys.Args) (sys.Retval, sys.Errno) {
	fd, bufAddr := int(a[0]), a[1]
	nbytes, err := ioCount(a[2])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	basep := a[3]
	f, err := p.file(fd)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	if f.ip == nil || !f.ip.IsDir() {
		return sys.Retval{}, sys.ENOTDIR
	}
	f.mu.Lock()
	ip, off := f.ip, f.off
	f.mu.Unlock()

	ents, e := ip.Dirents()
	if e != sys.OK {
		return sys.Retval{}, e
	}
	var out []byte
	idx := int(off)
	for idx < len(ents) {
		rl := sys.DirentRecLen(ents[idx].Name)
		if len(out)+rl > nbytes {
			break
		}
		out = sys.EncodeDirent(out, ents[idx])
		idx++
	}
	if len(out) == 0 && idx < len(ents) {
		return sys.Retval{}, sys.EINVAL // buffer too small for one record
	}
	if len(out) > 0 {
		if e := p.CopyOut(bufAddr, out); e != sys.OK {
			return sys.Retval{}, e
		}
	}
	if basep != 0 {
		var b [4]byte
		b[0], b[1], b[2], b[3] = byte(off), byte(off>>8), byte(off>>16), byte(off>>24)
		if e := p.CopyOut(basep, b[:]); e != sys.OK {
			return sys.Retval{}, e
		}
	}
	f.mu.Lock()
	f.off = int64(idx)
	f.mu.Unlock()
	return sys.Retval{sys.Word(len(out))}, sys.OK
}

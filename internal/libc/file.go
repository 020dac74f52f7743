package libc

import "interpose/internal/sys"

// File-descriptor system call wrappers. Each marshals its arguments into
// the process address space and issues the corresponding system call.

// Open opens path with the given flags and creation mode.
func (t *T) Open(path string, flags int, mode uint32) (int, sys.Errno) {
	a1, _, e := t.pathScratch(path, "")
	if e != sys.OK {
		return -1, e
	}
	rv, err := t.Syscall(sys.SYS_open, a1, sys.Word(flags), mode)
	return int(rv[0]), err
}

// Creat creates (or truncates) path for writing.
func (t *T) Creat(path string, mode uint32) (int, sys.Errno) {
	return t.Open(path, sys.O_WRONLY|sys.O_CREAT|sys.O_TRUNC, mode)
}

// Close closes a descriptor.
func (t *T) Close(fd int) sys.Errno {
	_, err := t.Syscall(sys.SYS_close, sys.Word(fd))
	return err
}

// Fsync forces fd's data to stable storage. With a write-ahead journal
// attached it is the group-commit barrier.
func (t *T) Fsync(fd int) sys.Errno {
	_, err := t.Syscall(sys.SYS_fsync, sys.Word(fd))
	return err
}

// Sync flushes all pending filesystem state to stable storage.
func (t *T) Sync() sys.Errno {
	_, err := t.Syscall(sys.SYS_sync)
	return err
}

// Read reads into b, staging through the address space.
func (t *T) Read(fd int, b []byte) (int, sys.Errno) {
	if len(b) == 0 {
		return 0, sys.OK
	}
	buf := t.ensureIOBuf(len(b))
	rv, err := t.Syscall(sys.SYS_read, sys.Word(fd), buf, sys.Word(len(b)))
	if err != sys.OK {
		return 0, err
	}
	n := int(rv[0])
	if n > 0 {
		if e := t.p.CopyIn(buf, b[:n]); e != sys.OK {
			return 0, e
		}
	}
	return n, sys.OK
}

// Write writes b, staging through the address space.
func (t *T) Write(fd int, b []byte) (int, sys.Errno) {
	if len(b) == 0 {
		return 0, sys.OK
	}
	buf := t.ensureIOBuf(len(b))
	if e := t.p.CopyOut(buf, b); e != sys.OK {
		return 0, e
	}
	rv, err := t.Syscall(sys.SYS_write, sys.Word(fd), buf, sys.Word(len(b)))
	return int(rv[0]), err
}

// ReadRetry is Read with EINTR retry: an interrupted read that moved no
// data is reissued. Partial reads are returned as-is (short reads are part
// of the read contract). Programs that do not use interrupted reads as a
// control-flow signal should prefer this over Read.
func (t *T) ReadRetry(fd int, b []byte) (int, sys.Errno) {
	for {
		n, err := t.Read(fd, b)
		if err == sys.EINTR {
			continue
		}
		return n, err
	}
}

// WriteAll writes all of b: EINTR is retried and short writes are
// completed. It returns the bytes actually written, which is len(b)
// unless a non-retryable error stopped progress.
func (t *T) WriteAll(fd int, b []byte) (int, sys.Errno) {
	total := 0
	for len(b) > 0 {
		n, err := t.Write(fd, b)
		if n > 0 {
			total += n
			b = b[n:]
		}
		switch {
		case err == sys.EINTR:
			continue
		case err != sys.OK:
			return total, err
		case n == 0:
			// No progress and no error: report rather than spin.
			return total, sys.EIO
		}
	}
	return total, sys.OK
}

// WriteString writes s to fd, retrying EINTR and partial writes.
func (t *T) WriteString(fd int, s string) sys.Errno {
	_, err := t.WriteAll(fd, []byte(s))
	return err
}

// Lseek repositions a descriptor.
func (t *T) Lseek(fd int, off int64, whence int) (int64, sys.Errno) {
	rv, err := t.Syscall(sys.SYS_lseek, sys.Word(fd), sys.Word(int32(off)), sys.Word(whence))
	return int64(int32(rv[0])), err
}

// Dup duplicates a descriptor at the lowest free slot.
func (t *T) Dup(fd int) (int, sys.Errno) {
	rv, err := t.Syscall(sys.SYS_dup, sys.Word(fd))
	return int(rv[0]), err
}

// Dup2 duplicates oldfd onto newfd.
func (t *T) Dup2(oldfd, newfd int) sys.Errno {
	_, err := t.Syscall(sys.SYS_dup2, sys.Word(oldfd), sys.Word(newfd))
	return err
}

// Pipe creates a pipe, returning the read and write descriptors.
func (t *T) Pipe() (int, int, sys.Errno) {
	rv, err := t.Syscall(sys.SYS_pipe)
	return int(rv[0]), int(rv[1]), err
}

// Fcntl performs a descriptor control operation.
func (t *T) Fcntl(fd, cmd int, arg sys.Word) (sys.Word, sys.Errno) {
	rv, err := t.Syscall(sys.SYS_fcntl, sys.Word(fd), sys.Word(cmd), arg)
	return rv[0], err
}

// SetCloexec marks a descriptor close-on-exec.
func (t *T) SetCloexec(fd int) sys.Errno {
	_, err := t.Fcntl(fd, sys.F_SETFD, sys.FD_CLOEXEC)
	return err
}

// Flock applies or removes an advisory lock.
func (t *T) Flock(fd, op int) sys.Errno {
	_, err := t.Syscall(sys.SYS_flock, sys.Word(fd), sys.Word(op))
	return err
}

// Stat stats a path, following symbolic links.
func (t *T) Stat(path string) (sys.Stat, sys.Errno) { return t.statCall(sys.SYS_stat, path) }

// Lstat stats a path without following a final symbolic link.
func (t *T) Lstat(path string) (sys.Stat, sys.Errno) { return t.statCall(sys.SYS_lstat, path) }

func (t *T) statCall(num int, path string) (sys.Stat, sys.Errno) {
	a1, _, e := t.pathScratch(path, "")
	if e != sys.OK {
		return sys.Stat{}, e
	}
	stAddr := t.structScratch()
	if _, err := t.Syscall(num, a1, stAddr); err != sys.OK {
		return sys.Stat{}, err
	}
	var b [sys.StatSize]byte
	if e := t.p.CopyIn(stAddr, b[:]); e != sys.OK {
		return sys.Stat{}, e
	}
	return sys.DecodeStat(b[:]), sys.OK
}

// Fstat stats an open descriptor.
func (t *T) Fstat(fd int) (sys.Stat, sys.Errno) {
	stAddr := t.structScratch()
	if _, err := t.Syscall(sys.SYS_fstat, sys.Word(fd), stAddr); err != sys.OK {
		return sys.Stat{}, err
	}
	var b [sys.StatSize]byte
	if e := t.p.CopyIn(stAddr, b[:]); e != sys.OK {
		return sys.Stat{}, e
	}
	return sys.DecodeStat(b[:]), sys.OK
}

// Access checks accessibility of path using the real credentials.
func (t *T) Access(path string, mode int) sys.Errno {
	a1, _, e := t.pathScratch(path, "")
	if e != sys.OK {
		return e
	}
	_, err := t.Syscall(sys.SYS_access, a1, sys.Word(mode))
	return err
}

// Unlink removes a directory entry.
func (t *T) Unlink(path string) sys.Errno { return t.path1Call(sys.SYS_unlink, path) }

// Mkdir creates a directory.
func (t *T) Mkdir(path string, mode uint32) sys.Errno {
	a1, _, e := t.pathScratch(path, "")
	if e != sys.OK {
		return e
	}
	_, err := t.Syscall(sys.SYS_mkdir, a1, mode)
	return err
}

// Rmdir removes an empty directory.
func (t *T) Rmdir(path string) sys.Errno { return t.path1Call(sys.SYS_rmdir, path) }

// Chdir changes the working directory.
func (t *T) Chdir(path string) sys.Errno { return t.path1Call(sys.SYS_chdir, path) }

// Fchdir changes the working directory to an open descriptor's directory.
func (t *T) Fchdir(fd int) sys.Errno {
	_, err := t.Syscall(sys.SYS_fchdir, sys.Word(fd))
	return err
}

// Chroot changes the root directory.
func (t *T) Chroot(path string) sys.Errno { return t.path1Call(sys.SYS_chroot, path) }

func (t *T) path1Call(num int, path string) sys.Errno {
	a1, _, e := t.pathScratch(path, "")
	if e != sys.OK {
		return e
	}
	_, err := t.Syscall(num, a1)
	return err
}

func (t *T) path2Call(num int, p1, p2 string) sys.Errno {
	a1, a2, e := t.pathScratch(p1, p2)
	if e != sys.OK {
		return e
	}
	_, err := t.Syscall(num, a1, a2)
	return err
}

// Link creates a hard link newPath to oldPath.
func (t *T) Link(oldPath, newPath string) sys.Errno {
	return t.path2Call(sys.SYS_link, oldPath, newPath)
}

// Symlink creates a symbolic link at linkPath pointing to target.
func (t *T) Symlink(target, linkPath string) sys.Errno {
	return t.path2Call(sys.SYS_symlink, target, linkPath)
}

// Rename moves oldPath to newPath.
func (t *T) Rename(oldPath, newPath string) sys.Errno {
	return t.path2Call(sys.SYS_rename, oldPath, newPath)
}

// Readlink reads a symbolic link's target.
func (t *T) Readlink(path string) (string, sys.Errno) {
	a1, _, e := t.pathScratch(path, "")
	if e != sys.OK {
		return "", e
	}
	buf := t.ensureIOBuf(sys.PathMax)
	rv, err := t.Syscall(sys.SYS_readlink, a1, buf, sys.PathMax)
	if err != sys.OK {
		return "", err
	}
	b := make([]byte, rv[0])
	if e := t.p.CopyIn(buf, b); e != sys.OK {
		return "", e
	}
	return string(b), sys.OK
}

// Chmod changes a file's permission bits.
func (t *T) Chmod(path string, mode uint32) sys.Errno {
	a1, _, e := t.pathScratch(path, "")
	if e != sys.OK {
		return e
	}
	_, err := t.Syscall(sys.SYS_chmod, a1, mode)
	return err
}

// Chown changes a file's ownership.
func (t *T) Chown(path string, uid, gid uint32) sys.Errno {
	a1, _, e := t.pathScratch(path, "")
	if e != sys.OK {
		return e
	}
	_, err := t.Syscall(sys.SYS_chown, a1, uid, gid)
	return err
}

// Truncate sets a file's length by path.
func (t *T) Truncate(path string, length int64) sys.Errno {
	a1, _, e := t.pathScratch(path, "")
	if e != sys.OK {
		return e
	}
	_, err := t.Syscall(sys.SYS_truncate, a1, sys.Word(int32(length)))
	return err
}

// Ftruncate sets a file's length by descriptor.
func (t *T) Ftruncate(fd int, length int64) sys.Errno {
	_, err := t.Syscall(sys.SYS_ftruncate, sys.Word(fd), sys.Word(int32(length)))
	return err
}

// Utimes sets a file's access and modification times (zero Timevals set
// the current time, via a null pointer).
func (t *T) Utimes(path string, atime, mtime sys.Timeval) sys.Errno {
	a1, _, e := t.pathScratch(path, "")
	if e != sys.OK {
		return e
	}
	var tvAddr sys.Word
	if atime != (sys.Timeval{}) || mtime != (sys.Timeval{}) {
		tvAddr = t.structScratch()
		var b [2 * sys.TimevalSize]byte
		atime.Encode(b[0:])
		mtime.Encode(b[8:])
		if e := t.p.CopyOut(tvAddr, b[:]); e != sys.OK {
			return e
		}
	}
	_, err := t.Syscall(sys.SYS_utimes, a1, tvAddr)
	return err
}

// Umask sets the file-creation mask, returning the previous one.
func (t *T) Umask(mask uint32) uint32 {
	rv, _ := t.Syscall(sys.SYS_umask, mask)
	return rv[0]
}

// Ioctl performs a device control operation with a struct argument
// already placed in the address space at argAddr.
func (t *T) Ioctl(fd int, req sys.Word, argAddr sys.Word) sys.Errno {
	_, err := t.Syscall(sys.SYS_ioctl, sys.Word(fd), req, argAddr)
	return err
}

// Getdirentries reads directory records from fd into the staging buffer
// and decodes them. It returns zero records at end of directory.
func (t *T) Getdirentries(fd int) ([]sys.Dirent, sys.Errno) {
	buf := t.ensureIOBuf(4096)
	rv, err := t.Syscall(sys.SYS_getdirentries, sys.Word(fd), buf, 4096, 0)
	if err != sys.OK {
		return nil, err
	}
	n := int(rv[0])
	if n == 0 {
		return nil, sys.OK
	}
	b := make([]byte, n)
	if e := t.p.CopyIn(buf, b); e != sys.OK {
		return nil, e
	}
	return sys.DecodeDirents(b), sys.OK
}

// ReadDir returns the names in directory path, excluding "." and "..".
func (t *T) ReadDir(path string) ([]string, sys.Errno) {
	fd, err := t.Open(path, sys.O_RDONLY, 0)
	if err != sys.OK {
		return nil, err
	}
	defer t.Close(fd)
	var names []string
	for {
		ents, err := t.Getdirentries(fd)
		if err != sys.OK {
			return nil, err
		}
		if len(ents) == 0 {
			return names, sys.OK
		}
		for _, d := range ents {
			if d.Name != "." && d.Name != ".." {
				names = append(names, d.Name)
			}
		}
	}
}

// readFileStage is how many transfer buffers ReadFile stages a file in.
const readFileStage = 8

// ReadFile reads the entire file at path. Each read asks for one whole
// transfer buffer, as a read loop over a fixed buffer would, and lands in
// its own pooled buffer. A file that reaches end of file within the
// staged buffers — the read that sees end of file takes one too, so up
// to readFileStage-1 full buffers — is copied once into a result of
// exactly its length, its only allocation. A longer file spills into a
// growing result.
func (t *T) ReadFile(path string) ([]byte, sys.Errno) {
	fd, err := t.Open(path, sys.O_RDONLY, 0)
	if err != sys.OK {
		return nil, err
	}
	defer t.Close(fd)
	var pooled [readFileStage]*[]byte
	var stage [readFileStage][]byte // the bytes each staged read returned
	used, total, eof := 0, 0, false
	defer func() {
		for _, bp := range pooled[:used] {
			putXfer(bp)
		}
	}()
	for used < readFileStage && !eof {
		bp := getXfer()
		pooled[used] = bp
		used++
		n, err := t.ReadRetry(fd, *bp)
		if err != sys.OK {
			return nil, err
		}
		stage[used-1] = (*bp)[:n]
		total += n
		eof = n == 0
	}
	size := total
	if !eof {
		size *= 2
	}
	out := make([]byte, 0, size)
	for _, b := range stage[:used] {
		out = append(out, b...)
	}
	for buf := *pooled[0]; !eof; {
		n, err := t.ReadRetry(fd, buf)
		if err != sys.OK {
			return nil, err
		}
		out = append(out, buf[:n]...)
		eof = n == 0
	}
	return out, sys.OK
}

// WriteFile creates path with the given contents and mode.
func (t *T) WriteFile(path string, data []byte, mode uint32) sys.Errno {
	fd, err := t.Open(path, sys.O_WRONLY|sys.O_CREAT|sys.O_TRUNC, mode)
	if err != sys.OK {
		return err
	}
	defer t.Close(fd)
	_, werr := t.WriteAll(fd, data)
	return werr
}

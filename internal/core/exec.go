package core

import (
	"slices"

	"interpose/internal/image"
	"interpose/internal/sys"
)

// SysExecve takes the default action for execve. Unlike the other calls,
// the default cannot simply be passed down: as in the paper, execve "must
// be completely reimplemented by the toolkit from lower-level primitives",
// because the underlying implementation's execve would discard the state
// an agent needs preserved. The reimplementation individually performs the
// steps a single execve normally bundles: reading the program file,
// closing close-on-exec descriptors, resetting signal handlers, clearing
// the address space, loading the image, building the argument stack, and
// transferring control. This is why execve under a symbolic-layer agent
// costs roughly twice as much as without one (Table 3-5).
func (s *Symbolic) SysExecve(c sys.Ctx, path string, argvAddr, envpAddr sys.Word) (sys.Retval, sys.Errno) {
	return ExecveFromPrimitives(c, path, argvAddr, envpAddr)
}

// ReadWordVec decodes a NULL-terminated vector of string pointers from the
// client's address space.
func ReadWordVec(c sys.Ctx, addr sys.Word) ([]string, sys.Errno) {
	if addr == 0 {
		return nil, sys.OK
	}
	var out []string
	var b [4]byte // one buffer for the scan: CopyIn makes it escape
	for i := 0; ; i++ {
		if i > 1024 {
			return nil, sys.E2BIG
		}
		if e := c.CopyIn(addr+sys.Word(4*i), b[:]); e != sys.OK {
			return nil, e
		}
		ptr := sys.Word(b[0]) | sys.Word(b[1])<<8 | sys.Word(b[2])<<16 | sys.Word(b[3])<<24
		if ptr == 0 {
			return out, sys.OK
		}
		str, e := c.CopyInString(ptr, sys.ArgMax)
		if e != sys.OK {
			return nil, e
		}
		out = append(out, str)
	}
}

// readFileDown reads the whole file at path through downcalls, staging the
// I/O in the client's emulator segment.
func readFileDown(c sys.Ctx, path string) ([]byte, sys.Errno) {
	rv, err := DownPath(c, sys.SYS_open, path, sys.O_RDONLY)
	if err != sys.OK {
		return nil, err
	}
	fd := rv[0]
	defer Down(c, sys.SYS_close, sys.Args{fd})
	const chunk = 16 * 1024
	bufAddr, err := StageAlloc(c, chunk)
	if err != sys.OK {
		return nil, err
	}
	var data []byte
	for {
		rv, err := Down(c, sys.SYS_read, sys.Args{fd, bufAddr, chunk})
		if err != sys.OK {
			return nil, err
		}
		n := int(rv[0])
		if n == 0 {
			return data, sys.OK
		}
		data = slices.Grow(data, n)
		if e := c.CopyIn(bufAddr, data[len(data):len(data)+n]); e != sys.OK {
			return nil, e
		}
		data = data[:len(data)+n]
	}
}

// ExecveFromPrimitives is the toolkit's execve: every step performed
// individually through downcalls and machine primitives, preserving the
// installed agent layers across the exec.
func ExecveFromPrimitives(c sys.Ctx, path string, argvAddr, envpAddr sys.Word) (sys.Retval, sys.Errno) {
	ep, ok := c.(execProc)
	if !ok {
		// Not running on the kernel's machine contexts; let the layer
		// below deal with it.
		return DownPath(c, sys.SYS_execve, path, argvAddr, envpAddr)
	}

	// Gather everything from the old address space before clearing it.
	argv, err := ReadWordVec(c, argvAddr)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	envp, err := ReadWordVec(c, envpAddr)
	if err != sys.OK {
		return sys.Retval{}, err
	}

	// Resolve the image, following "#!" interpreters.
	var entry image.Entry
	for depth := 0; ; depth++ {
		if depth > 4 {
			return sys.Retval{}, sys.ENOEXEC
		}
		if _, err := DownPath(c, sys.SYS_access, path, sys.X_OK); err != sys.OK {
			return sys.Retval{}, err
		}
		data, err := readFileDown(c, path)
		if err != sys.OK {
			return sys.Retval{}, err
		}
		if name, ok := image.ParseHeader(data); ok {
			e, found := ep.LookupImage(name)
			if !found {
				return sys.Retval{}, sys.ENOEXEC
			}
			entry = e
			if len(argv) == 0 {
				argv = []string{path}
			}
			break
		}
		if interp, arg, ok := image.ParseInterpreter(data); ok {
			newArgv := []string{interp}
			if arg != "" {
				newArgv = append(newArgv, arg)
			}
			newArgv = append(newArgv, path)
			if len(argv) > 1 {
				newArgv = append(newArgv, argv[1:]...)
			}
			argv = newArgv
			path = interp
			continue
		}
		return sys.Retval{}, sys.ENOEXEC
	}

	// Close close-on-exec descriptors, one fcntl query at a time.
	for fd := 0; fd < sys.OpenMax; fd++ {
		rv, err := Down(c, sys.SYS_fcntl, sys.Args{sys.Word(fd), sys.F_GETFD})
		if err != sys.OK {
			continue // closed slot
		}
		if rv[0]&sys.FD_CLOEXEC != 0 {
			Down(c, sys.SYS_close, sys.Args{sys.Word(fd)})
		}
	}

	// Reset caught signal handlers to the default action; ignored
	// dispositions are preserved, as execve specifies.
	osvAddr, err := StageAlloc(c, sys.SigvecSize)
	if err != sys.OK {
		return sys.Retval{}, err
	}
	var b [sys.SigvecSize]byte // one buffer for the scan: CopyIn makes it escape
	sys.Sigvec{Handler: sys.SIG_DFL}.Encode(b[:])
	dflAddr, err := StageBytes(c, b[:])
	if err != sys.OK {
		return sys.Retval{}, err
	}
	for sig := 1; sig < sys.NSIG; sig++ {
		if sig == sys.SIGKILL || sig == sys.SIGSTOP {
			continue
		}
		if _, err := Down(c, sys.SYS_sigvec, sys.Args{sys.Word(sig), 0, osvAddr}); err != sys.OK {
			continue
		}
		if e := c.CopyIn(osvAddr, b[:]); e != sys.OK {
			continue
		}
		sv := sys.DecodeSigvec(b[:])
		if sv.Handler != sys.SIG_DFL && sv.Handler != sys.SIG_IGN {
			Down(c, sys.SYS_sigvec, sys.Args{sys.Word(sig), dflAddr, 0})
		}
	}

	// Clear the old image, build the new argument stack, transfer control.
	base := path
	for i := len(base) - 1; i >= 0; i-- {
		if base[i] == '/' {
			base = base[i+1:]
			break
		}
	}
	ep.SetComm(base)
	ep.ResetAS()
	sp, errno := image.SetupStack(ep, argv, envp)
	if errno != sys.OK {
		// The old image is already gone; nothing to return to.
		Down(c, sys.SYS_exit, sys.Args{127})
		return sys.Retval{}, errno
	}
	ep.SetInitialSP(sp)
	ep.Exec(entry) // does not return
	return sys.Retval{}, sys.OK
}

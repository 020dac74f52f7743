package kernel

import (
	"interpose/internal/image"
	"interpose/internal/vfs"
)

// Fork clones a quiesced world's kernel: a fresh kernel shell (empty
// process table, own console, own driver instances) around a
// vfs.FS.Fork of the parent's filesystem. That fork freezes the parent's
// tree as an immutable image once and gives the child an empty overlay
// on it, so its cost does not grow with the tree: the child clones an
// inode only when one of its processes reaches it (vfs/fork.go).
//
// The parent must be quiesced (no running processes, journal
// committed); it keeps running afterwards on its own overlay of the
// same image.
func Fork(parent *Kernel) (*Kernel, error) {
	k, err := forkShell(parent.images, parent.fs)
	if err != nil {
		return nil, err
	}
	parent.pmu.Lock()
	k.hostname = parent.hostname
	parent.pmu.Unlock()
	storeInt64((*int64)(&k.timeOffset), loadInt64((*int64)(&parent.timeOffset)))
	return k, nil
}

// forkShell builds a kernel shell around a fork of fs. Fork and Restore
// both build a kernel this way. The fork binds fs's device inodes by
// rdev to the shell's own drivers: a clone that kept another world's
// ttyDev would write its console output into that world.
func forkShell(images *image.Registry, fs *vfs.FS) (*Kernel, error) {
	k := newKernel(images)
	child, err := fs.Fork(k.Now, k.lookupDevice)
	if err != nil {
		return nil, err
	}
	k.fs = child
	return k, nil
}

package kernel

import (
	"interpose/internal/vfs"
)

// Fork clones a quiesced world's kernel: a fresh kernel shell (empty
// process table, own console, own driver instances) around a
// vfs.FS.Fork of the parent's filesystem. That fork freezes the parent's
// tree as an immutable image once and gives the child an empty overlay
// on it, so its cost does not grow with the tree: the child clones an
// inode only when one of its processes reaches it (vfs/fork.go).
//
// Device inodes in the image are bound by rdev to the child's own driver
// table, exactly as Restore does: a clone that kept the parent's ttyDev
// would write its console output into the parent world. The parent must
// be quiesced (no running processes, journal committed); it keeps running
// afterwards on its own overlay of the same image.
func Fork(parent *Kernel) (*Kernel, error) {
	k := newKernel(parent.images)
	parent.pmu.Lock()
	k.hostname = parent.hostname
	parent.pmu.Unlock()
	storeInt64((*int64)(&k.timeOffset), loadInt64((*int64)(&parent.timeOffset)))
	fs, err := parent.fs.Fork(k.Now, func(rdev uint32) (vfs.Device, bool) {
		d := k.lookupDevice(rdev)
		return d, d != nil
	})
	if err != nil {
		return nil, err
	}
	k.fs = fs
	return k, nil
}

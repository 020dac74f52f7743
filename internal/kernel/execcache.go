package kernel

import (
	"sync"
	"sync/atomic"

	"interpose/internal/image"
	"interpose/internal/vfs"
)

// The exec image cache memoizes the header inspection execve performs on
// the executable file: copying out the file bytes and parsing either the
// registered-image header or a "#!" interpreter line. The result is keyed
// by the inode and validated against the inode's generation counter, so
// any content change (which bumps the generation under the inode's write
// lock) makes the cached parse unreachable — there is no explicit
// invalidation path to get wrong.
//
// The generation is sampled before the bytes are read: if the file changes
// between the two reads, the entry is stored with the pre-change
// generation and can never validate against the post-change one. A stale
// parse is therefore unreachable; the worst case is a redundant re-parse.

const (
	execNone   = int8(iota) // unrecognized: ENOEXEC
	execImage               // registered image header
	execInterp              // "#!" interpreter line
)

// execParse is one cached header-inspection result.
type execParse struct {
	gen    uint64
	kind   int8
	name   string // registered image name (execImage)
	interp string // interpreter path (execInterp)
	arg    string // optional interpreter argument (execInterp)
}

// execCache maps *vfs.Inode → *execParse. Inodes are never freed, so keys
// never dangle; entries for unlinked files are simply unreachable garbage
// bounded by the number of executables ever run.
type execCache struct {
	m      sync.Map
	hits   atomic.Uint64
	misses atomic.Uint64
}

// lookup returns the cached parse for ip if its generation still matches.
func (c *execCache) lookup(ip *vfs.Inode) (*execParse, bool) {
	v, ok := c.m.Load(ip)
	if !ok {
		return nil, false
	}
	ep := v.(*execParse)
	if ep.gen != ip.Gen() {
		return nil, false
	}
	return ep, true
}

// parse inspects ip's contents (on miss) or returns the cached result.
func (c *execCache) parse(ip *vfs.Inode) *execParse {
	if ep, ok := c.lookup(ip); ok {
		c.hits.Add(1)
		return ep
	}
	c.misses.Add(1)
	gen := ip.Gen()
	data := ip.Bytes()
	ep := &execParse{gen: gen}
	if name, ok := image.ParseHeader(data); ok {
		ep.kind = execImage
		ep.name = name
	} else if interp, arg, ok := image.ParseInterpreter(data); ok {
		ep.kind = execInterp
		ep.interp = interp
		ep.arg = arg
	}
	c.m.Store(ip, ep)
	return ep
}

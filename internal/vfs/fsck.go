package vfs

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"interpose/internal/sys"
)

// Recovery verification: Check is the fsck run after every crash
// recovery (and usable on any quiesced filesystem). It audits the
// structural invariants that journal replay and snapshot restore promise
// to preserve and returns human-readable violations — an empty slice is
// a clean bill of health:
//
//   - link counts: a file's Nlink equals the number of dentries that
//     reference it; a directory's equals 2 + its subdirectory count.
//   - reachability: the live-inode counter equals the number of inodes
//     reachable from the root (nothing leaked, nothing lost).
//   - directory structure: the name table's lookup map and iteration
//     order agree exactly, and every child directory's ".." points at
//     the directory that holds it.
//   - snapshot coherence: the lock-free attribute snapshot matches the
//     inode, and a current-generation stat snapshot matches a freshly
//     computed one.
//
// Check takes read locks only; run it on a quiesced world.
func (fs *FS) Check() []string {
	var bad []string
	badf := func(format string, a ...any) { bad = append(bad, fmt.Sprintf(format, a...)) }

	// One walk collects the audit inputs: dentry reference counts per
	// inode, subdirectory counts per directory, and the set of reachable
	// inodes.
	refs := map[uint32]int{}    // dentry references per inode number
	subdirs := map[uint32]int{} // subdirectory count per directory
	reachable := 0
	var maxIno uint32

	fs.walkTree(func(path string, ip *Inode) {
		reachable++
		if ip.Ino > maxIno {
			maxIno = ip.Ino
		}

		ip.mu.RLock()
		defer ip.mu.RUnlock()

		if ip.Nlink == 0 {
			badf("%s: reachable inode %d has zero link count", path, ip.Ino)
		}
		if ip.typ != ip.Mode&sys.S_IFMT {
			badf("%s: type bits %o disagree with mode %o", path, ip.typ, ip.Mode)
		}

		// Lock-free attribute snapshot must match the locked truth.
		if a := ip.attrs.Load(); a == nil {
			badf("%s: no published attribute snapshot", path)
		} else if a.mode != ip.Mode || a.uid != ip.UID || a.gid != ip.GID {
			badf("%s: attribute snapshot (%o,%d,%d) != inode (%o,%d,%d)",
				path, a.mode, a.uid, a.gid, ip.Mode, ip.UID, ip.GID)
		}
		// A current-generation stat snapshot must match a recomputation.
		if sc := ip.statc.Load(); sc != nil && sc.gen == ip.gen.Load() {
			if sc.st != ip.statLocked() {
				badf("%s: cached stat disagrees with inode at generation %d", path, sc.gen)
			}
		}

		if !ip.IsDir() {
			return
		}

		// map ↔ order agreement.
		t := ip.names()
		if len(t.m) != len(t.order) {
			badf("%s: %d map entries but %d ordered names", path, len(t.m), len(t.order))
		}
		for _, name := range t.order {
			child := fs.peek(t.m[name])
			if child == nil {
				badf("%s: ordered name %q missing from lookup map", path, name)
				continue
			}
			refs[child.Ino]++
			if child.IsDir() {
				subdirs[ip.Ino]++
				if pp := fs.peek(child.parentPtr()); pp != ip {
					badf("%s/%s: \"..\" does not point at its parent", path, name)
				}
			}
		}
	})

	// Link-count audit with the reference counts in hand.
	root := fs.Root()
	fs.walkTree(func(path string, ip *Inode) {
		ip.mu.RLock()
		nlink := ip.Nlink
		ip.mu.RUnlock()
		if ip.IsDir() {
			// "/" has no parent dentry, but its ".." self-reference stands
			// in for one, so the formula covers the root too.
			want := uint32(2 + subdirs[ip.Ino])
			if nlink != want {
				badf("%s: directory link count %d, want %d (2 + %d subdirs)",
					path, nlink, want, subdirs[ip.Ino])
			}
			if ip != root && refs[ip.Ino] != 1 {
				badf("%s: directory referenced by %d dentries", path, refs[ip.Ino])
			}
		} else {
			if nlink != uint32(refs[ip.Ino]) {
				badf("%s: link count %d but %d dentries reference it", path, nlink, refs[ip.Ino])
			}
		}
	})

	if live := int(fs.ninodes.Load()); live != reachable {
		badf("/: live-inode counter %d but %d inodes reachable (orphans or leaks)", live, reachable)
	}
	if next := fs.nextIno.Load(); next <= maxIno {
		badf("/: inode allocator at %d, behind live inode %d", next, maxIno)
	}
	return bad
}

// StateHash returns a digest of the filesystem's logical durable state:
// paths, types, permissions, ownership, link counts, symlink targets and
// file contents — everything crash recovery must preserve. Timestamps
// are deliberately excluded (replay reassigns them from the recovery
// clock), as are inode numbers' allocation order artifacts beyond the
// numbers themselves. Two worlds with equal hashes hold byte-identical
// trees.
func (fs *FS) StateHash() [32]byte {
	h := sha256.New()
	var num [8]byte
	wU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(num[:4], v)
		h.Write(num[:4])
	}
	fs.walkTree(func(path string, ip *Inode) {
		ip.mu.RLock()
		defer ip.mu.RUnlock()
		h.Write([]byte(path))
		h.Write([]byte{0})
		wU32(ip.Ino)
		wU32(ip.Mode)
		wU32(ip.Nlink)
		wU32(ip.UID)
		wU32(ip.GID)
		wU32(ip.Rdev)
		switch ip.typ {
		case sys.S_IFREG:
			binary.LittleEndian.PutUint64(num[:], uint64(len(ip.data)))
			h.Write(num[:])
			h.Write(ip.data)
		case sys.S_IFLNK:
			h.Write([]byte(ip.link))
		case sys.S_IFDIR:
			// Iteration order is insertion order and may differ between a
			// live world and its replayed twin; hash sorted names.
			names := slices.Clone(ip.names().order)
			sort.Strings(names)
			for _, n := range names {
				h.Write([]byte(n))
				h.Write([]byte{0})
			}
		}
	})
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

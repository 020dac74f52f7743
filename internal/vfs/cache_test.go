package vfs

import (
	"fmt"
	"sync"
	"testing"

	"interpose/internal/sys"
)

// warm resolves path once, so an overlay has reached its components.
func warm(t *testing.T, fs *FS, path string) *Inode {
	t.Helper()
	ip, err := fs.Lookup(fs.Root(), path, root0, true)
	if err != sys.OK {
		t.Fatalf("warm %s: %v", path, err)
	}
	return ip
}

// TestCacheHitCounters pins the component counters: on a filesystem that
// owns every inode each component is a hit; on a fork the first walk
// clones (a miss per image inode reached) and the repeat walks hit.
func TestCacheHitCounters(t *testing.T) {
	fs := build(t)
	warm(t, fs, "/a/b/c.txt")
	before := fs.CacheStats()
	for i := 0; i < 10; i++ {
		warm(t, fs, "/a/b/c.txt")
	}
	after := fs.CacheStats()
	if d := after.Hits - before.Hits; d != 30 {
		t.Fatalf("10 walks of 3 owned components: %d hits, want 30", d)
	}
	if after.Misses != 0 {
		t.Fatalf("a filesystem that owns every inode counted %d misses", after.Misses)
	}

	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm(t, child, "/a/b/c.txt")
	if st := child.CacheStats(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("first walk on a fork: %+v, want 3 misses and no hit", st)
	}
	warm(t, child, "/a/b/c.txt")
	warm(t, child, "/a/../a/./b")
	if st := child.CacheStats(); st.Misses != 3 || st.Hits != 8 {
		t.Fatalf("repeat walks on a fork: %+v, want 3 misses and 8 hits", st)
	}
}

func TestCacheNegativeEntryInvalidatedByCreate(t *testing.T) {
	fs := build(t)
	b := warm(t, fs, "/a/b")

	// Two lookups of an absent name: each counts a negative hit.
	for i := 0; i < 2; i++ {
		if _, err := fs.Lookup(fs.Root(), "/a/b/new.txt", root0, true); err != sys.ENOENT {
			t.Fatalf("lookup %d: %v, want ENOENT", i, err)
		}
	}
	if st := fs.CacheStats(); st.NegHits != 2 {
		t.Fatalf("two absent lookups: %+v, want 2 negative hits", st)
	}

	// The next lookup sees the create at once.
	created, err := fs.Create(b, "new.txt", 0o644, root0)
	if err != sys.OK {
		t.Fatalf("create: %v", err)
	}
	got, err := fs.Lookup(fs.Root(), "/a/b/new.txt", root0, true)
	if err != sys.OK {
		t.Fatalf("lookup after create: %v", err)
	}
	if got != created {
		t.Fatalf("lookup found wrong inode after create")
	}
}

func TestCacheUnlinkInvalidates(t *testing.T) {
	fs := build(t)
	b := warm(t, fs, "/a/b")
	warm(t, fs, "/a/b/c.txt")
	if err := fs.Unlink(b, "c.txt", root0); err != sys.OK {
		t.Fatalf("unlink: %v", err)
	}
	if _, err := fs.Lookup(fs.Root(), "/a/b/c.txt", root0, true); err != sys.ENOENT {
		t.Fatalf("lookup after unlink: %v, want ENOENT", err)
	}
}

func TestCacheRenameInvalidates(t *testing.T) {
	fs := build(t)
	b := warm(t, fs, "/a/b")
	old := warm(t, fs, "/a/b/c.txt")
	if err := fs.Rename(b, "c.txt", b, "d.txt", root0); err != sys.OK {
		t.Fatalf("rename: %v", err)
	}
	if _, err := fs.Lookup(fs.Root(), "/a/b/c.txt", root0, true); err != sys.ENOENT {
		t.Fatalf("old name after rename: %v, want ENOENT", err)
	}
	got, err := fs.Lookup(fs.Root(), "/a/b/d.txt", root0, true)
	if err != sys.OK || got != old {
		t.Fatalf("new name after rename: %v (same inode: %v)", err, got == old)
	}
}

func TestCacheChmodVisibleOnFastPath(t *testing.T) {
	fs := build(t)
	b := warm(t, fs, "/a/b")
	warm(t, fs, "/a/b/c.txt")
	// Remove search permission from /a/b for others; the walk's
	// lock-free access check must see the change at once.
	if err := fs.Chmod(b, 0o700, root0); err != sys.OK {
		t.Fatalf("chmod: %v", err)
	}
	if _, err := fs.Lookup(fs.Root(), "/a/b/c.txt", alice, true); err != sys.EACCES {
		t.Fatalf("lookup after chmod: %v, want EACCES", err)
	}
	if err := fs.Chmod(b, 0o755, root0); err != sys.OK {
		t.Fatalf("chmod back: %v", err)
	}
	if _, err := fs.Lookup(fs.Root(), "/a/b/c.txt", alice, true); err != sys.OK {
		t.Fatalf("lookup after restore: %v", err)
	}
}

func TestCacheStatGenerationInvalidation(t *testing.T) {
	fs := build(t)
	ip := warm(t, fs, "/a/b/c.txt")
	st1 := ip.Stat()
	st2 := ip.Stat() // should come from the generation-checked cache
	if st1.Size != st2.Size || st1.Mode != st2.Mode {
		t.Fatalf("cached stat differs: %+v vs %+v", st1, st2)
	}
	if s := fs.CacheStats(); s.AttrHit == 0 {
		t.Fatalf("no attribute-cache hits recorded: %+v", s)
	}
	if _, err := ip.WriteAt([]byte("longer contents"), 0, 0); err != sys.OK {
		t.Fatalf("write: %v", err)
	}
	if st := ip.Stat(); st.Size != 15 {
		t.Fatalf("stat after write: size %d, want 15", st.Size)
	}
	if err := fs.Chmod(ip, 0o600, root0); err != sys.OK {
		t.Fatalf("chmod: %v", err)
	}
	if st := ip.Stat(); st.Mode&0o777 != 0o600 {
		t.Fatalf("stat after chmod: mode %o, want 600", st.Mode&0o777)
	}
}

// churn runs rename (c.txt <-> r.txt), create/unlink (n.txt) and chmod
// mutators on directory b of fs while each look runs in a loop of its
// own, and returns once the mutators are done and every look has
// stopped. A look returns false to stop early.
func churn(fs *FS, b *Inode, looks ...func() bool) {
	const iters = 400
	var mutators, lookers sync.WaitGroup
	stop := make(chan struct{})
	mutate := func(op func(i int)) {
		mutators.Add(1)
		go func() {
			defer mutators.Done()
			for i := 0; i < iters; i++ {
				op(i)
			}
		}()
	}
	names := [2]string{"c.txt", "r.txt"}
	mutate(func(i int) { fs.Rename(b, names[i%2], b, names[(i+1)%2], root0) })
	mutate(func(i int) {
		if i%2 == 0 {
			fs.Create(b, "n.txt", 0o644, root0)
		} else {
			fs.Unlink(b, "n.txt", root0)
		}
	})
	mutate(func(i int) { fs.Chmod(b, 0o700|uint32(i%2)*0o055, root0) })
	for _, look := range looks {
		lookers.Add(1)
		go func(look func() bool) {
			defer lookers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !look() {
					return
				}
			}
		}(look)
	}
	mutators.Wait()
	close(stop)
	lookers.Wait()
}

// churnLooker resolves paths on fs in turn, starting at the g'th; a
// lookup may find the current file or, mid-churn, ENOENT or EACCES.
func churnLooker(t *testing.T, fs *FS, g int, paths ...string) func() bool {
	i := g
	return func() bool {
		p := paths[i%len(paths)]
		i++
		ip, err := fs.Lookup(fs.Root(), p, root0, true)
		switch err {
		case sys.OK:
			if ip == nil || !fs.owns(ip) {
				t.Errorf("lookup %s: OK with inode %v not of this filesystem", p, ip)
				return false
			}
		case sys.ENOENT, sys.EACCES:
		default:
			t.Errorf("lookup %s: unexpected %v", p, err)
			return false
		}
		return true
	}
}

// checkAfterChurn: exactly one of c.txt/r.txt exists (renames preserve
// the file).
func checkAfterChurn(t *testing.T, fs *FS, b *Inode) {
	t.Helper()
	fs.Chmod(b, 0o755, root0)
	found := 0
	for _, n := range []string{"c.txt", "r.txt"} {
		if _, err := fs.Lookup(fs.Root(), "/a/b/"+n, root0, true); err == sys.OK {
			found++
		} else if err != sys.ENOENT {
			t.Fatalf("final lookup %s: %v", n, err)
		}
	}
	if found != 1 {
		t.Fatalf("after rename churn: %d of {c.txt,r.txt} exist, want 1", found)
	}
	if bad := fs.Check(); len(bad) != 0 {
		t.Fatalf("fsck after churn: %v", bad)
	}
}

// TestCacheRaceMutationsVsLookups churns rename/unlink/create/chmod in
// one set of goroutines while others resolve the same paths without a
// lock. Run under -race this checks the table publication; the invariant
// checked here is that a lookup never returns a wrong inode — ENOENT or
// the current file are both acceptable during churn.
func TestCacheRaceMutationsVsLookups(t *testing.T) {
	fs := build(t)
	b := warm(t, fs, "/a/b")
	var looks []func() bool
	for g := 0; g < 4; g++ {
		looks = append(looks, churnLooker(t, fs, g, "/a/b/c.txt", "/a/b/r.txt", "/a/b/n.txt", "/a/b"))
	}
	churn(fs, b, looks...)
	checkAfterChurn(t, fs, b)
}

// TestCacheRaceOnSharedOverlayTable is the same churn on a fork whose
// /a/b shares its name table with the image when the churn starts. The
// fork's lookers also reach image inodes for the first time (through the
// symlinks), racing the lock-free clone index against its growth, while
// the parent — another overlay on the same image — resolves the same
// names and must keep seeing exactly its own tree.
func TestCacheRaceOnSharedOverlayTable(t *testing.T) {
	fs := buildForkFS(t)
	child, err := fs.Fork(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := warm(t, child, "/a/b")
	if pb := warm(t, fs, "/a/b"); b.names() != pb.names() {
		t.Fatal("a fresh directory clone does not share its image's table")
	}
	var looks []func() bool
	for g := 0; g < 3; g++ {
		looks = append(looks, churnLooker(t, child, g, "/a/b/c.txt", "/a/link/r.txt", "/a/abs/n.txt", "/a/b", "/data/f07"))
	}
	for _, p := range []string{"/a/b/c.txt", "/a/link/c.txt", "/data/f03"} {
		p := p
		looks = append(looks, func() bool {
			if _, err := fs.Lookup(fs.Root(), p, root0, true); err != sys.OK {
				t.Errorf("parent lookup %s mid-churn: %v", p, err)
				return false
			}
			for _, q := range []string{"/a/b/r.txt", "/a/b/n.txt"} {
				if _, err := fs.Lookup(fs.Root(), q, root0, true); err != sys.ENOENT {
					t.Errorf("parent lookup %s mid-churn: %v, want ENOENT", q, err)
					return false
				}
			}
			return true
		})
	}
	churn(child, b, looks...)
	checkAfterChurn(t, child, b)
	mustClean(t, "parent", fs)
}

// TestCacheManyDirectories resolves every entry of a directory built by
// 300 creates, each of which published a new table.
func TestCacheManyDirectories(t *testing.T) {
	fs := New(nil)
	dir, err := fs.Mkdir(fs.Root(), "big", 0o755, root0)
	if err != sys.OK {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := fs.Create(dir, fmt.Sprintf("f%03d", i), 0o644, root0); err != sys.OK {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("/big/f%03d", i)
			if _, err := fs.Lookup(fs.Root(), p, root0, true); err != sys.OK {
				t.Fatalf("round %d lookup %s: %v", round, p, err)
			}
		}
	}
	st := fs.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("no hits across %d lookups: %+v", 2*n, st)
	}
}

// TestCacheRenameReplaceNeverMissing: a rename over an existing name,
// within one directory and across two, publishes the replacement so that
// a concurrent walk never finds the name missing.
func TestCacheRenameReplaceNeverMissing(t *testing.T) {
	fs := build(t)
	a, b := warm(t, fs, "/a"), warm(t, fs, "/a/b")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			from := a
			if i%2 == 0 {
				from = b
			}
			if _, e := fs.Create(from, "tmp", 0o644, root0); e != sys.OK {
				t.Errorf("create: %v", e)
				return
			}
			if e := fs.Rename(from, "tmp", b, "c.txt", root0); e != sys.OK {
				t.Errorf("rename: %v", e)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		if _, e := fs.Lookup(fs.Root(), "/a/b/c.txt", root0, true); e != sys.OK {
			t.Fatalf("c.txt missing mid-rename: %v", e)
		}
	}
}

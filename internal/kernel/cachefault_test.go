package kernel_test

import (
	"testing"

	"interpose/internal/fault"
	"interpose/internal/image"
	"interpose/internal/kernel"
	"interpose/internal/libc"
	"interpose/internal/sys"
)

// TestFaultedCreateDoesNotPoisonNameCache is the name-table/fault
// interaction round: a creating open that fails (by injection at the
// kernel leg) must leave the name absent — later stats still see ENOENT,
// each counted as a negative component — and a real create after the
// injector is removed must be visible to the next stat at once.
func TestFaultedCreateDoesNotPoisonNameCache(t *testing.T) {
	reg := image.NewRegistry()
	reg.Register("try", libc.Main(func(lt *libc.T) int {
		// Look the name up, fail the create, then check the name is
		// still absent.
		if _, err := lt.Stat("/tmp/victim"); err != sys.ENOENT {
			lt.Printf("pre-stat: %v\n", err)
			return 1
		}
		if _, err := lt.Open("/tmp/victim", sys.O_WRONLY|sys.O_CREAT, 0o644); err != sys.EIO {
			lt.Printf("open: %v\n", err)
			return 2
		}
		if _, err := lt.Stat("/tmp/victim"); err != sys.ENOENT {
			lt.Printf("post-stat: %v\n", err)
			return 3
		}
		return 0
	}))
	reg.Register("make", libc.Main(func(lt *libc.T) int {
		if err := lt.WriteFile("/tmp/victim", []byte("ok"), 0o644); err != sys.OK {
			lt.Printf("writefile: %v\n", err)
			return 1
		}
		st, err := lt.Stat("/tmp/victim")
		if err != sys.OK || st.Size != 2 {
			lt.Printf("stat: %v size=%d\n", err, st.Size)
			return 2
		}
		return 0
	}))
	k := kernel.New(reg)
	for _, n := range []string{"try", "make"} {
		if err := k.InstallProgram("/bin/"+n, n); err != nil {
			t.Fatal(err)
		}
	}

	plan, err := fault.ParsePlan("open:/tmp/victim=EIO")
	if err != nil {
		t.Fatal(err)
	}
	k.SetInjector(fault.NewInjector(plan))

	run := func(name string) {
		t.Helper()
		p, err := k.Spawn("/bin/"+name, []string{name}, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := k.WaitExit(p)
		if sys.WExitStatus(st) != 0 {
			t.Fatalf("%s exited %d:\n%s", name, sys.WExitStatus(st), k.Console().TakeOutput())
		}
	}

	before := k.FS().CacheStats().NegHits
	run("try")
	if st := k.FS().CacheStats(); st.NegHits < before+2 {
		t.Fatalf("two stats of an absent name counted %d negative components: %+v", st.NegHits-before, st)
	}

	// Injector gone: the same name must now be creatable, and the next
	// stat must see the create at once.
	k.SetInjector(nil)
	run("make")
}

package apps_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"interpose/internal/core"
	"interpose/internal/sys"
)

var update = flag.Bool("update", false, "rewrite testdata/readfile_stream.txt from this run")

// streamRecorder is a numeric-layer agent that logs every system call
// its client makes: the call's name, its third argument (the byte count
// of a read or write) and its result. It passes every call down
// unchanged.
type streamRecorder struct {
	core.Numeric
	b strings.Builder
}

func newStreamRecorder() *streamRecorder {
	r := &streamRecorder{}
	r.RegisterAll()
	return r
}

func (r *streamRecorder) Syscall(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
	fmt.Fprintf(&r.b, "%s %d", sys.SyscallName(num), a[2])
	if num == sys.SYS_exit {
		r.b.WriteString("\n") // exit does not return
	}
	rv, err := core.Down(c, num, a)
	if err != sys.OK {
		fmt.Fprintf(&r.b, " -> %s\n", err.Name())
	} else {
		fmt.Fprintf(&r.b, " -> %d\n", int32(rv[0]))
	}
	return rv, err
}

// streamSizes straddle the 8 KiB transfer buffer whole-file reads are
// staged through, and its multiples.
var streamSizes = []int{0, 1, 8191, 8192, 8193, 65536, 65537, 200000}

// TestReadFileSyscallStream pins the system calls cat, cp and wc make on
// files of each streamSizes length against testdata/readfile_stream.txt:
// how a program buffers a whole-file read is invisible to an agent only
// if every read still asks for the same count and sees the same result.
// Regenerate with -update only when the stream is meant to change.
func TestReadFileSyscallStream(t *testing.T) {
	k := world(t)
	var out strings.Builder
	for _, n := range streamSizes {
		data := make([]byte, n)
		for i := range data {
			data[i] = "abc def\n"[i%8]
		}
		src := "/tmp/f" + strconv.Itoa(n)
		if err := k.WriteFile(src, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, argv := range [][]string{
			{"cat", src},
			{"cp", src, src + ".cp"},
			{"wc", src},
		} {
			rec := newStreamRecorder()
			st, console, err := core.Run(k, []core.Agent{rec}, "/bin/"+argv[0], argv, []string{"PATH=/bin"})
			if err != nil || st != 0 {
				t.Fatalf("%v: status %#x, err %v\n%s", argv, st, err, console)
			}
			fmt.Fprintf(&out, "== %s\n%s", strings.Join(argv, " "), rec.b.String())
		}
		if got, err := k.ReadFile(src + ".cp"); err != nil || string(got) != string(data) {
			t.Fatalf("cp of %d bytes: %d bytes back, err %v", n, len(got), err)
		}
	}
	path := filepath.Join("testdata", "readfile_stream.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("system call stream differs from %s\n--- got ---\n%s", path, out.String())
	}
}

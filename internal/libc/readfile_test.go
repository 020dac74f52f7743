package libc_test

import (
	"bytes"
	"fmt"
	"testing"

	"interpose/internal/libc"
	"interpose/internal/sys"
)

// TestReadFileExactSize pins what a whole-file read costs: beyond what
// opening and closing the file costs, one allocation, the result itself,
// for any file that fits one transfer buffer, and a result with no spare
// capacity for any file that ends within the staged buffers. Longer
// files still read back whole.
func TestReadFileExactSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	st, out := run(t, func(lt *libc.T) int {
		for _, n := range []int{1, 100, 8191, 8192, 8193, 30000, libc.ReadFileStaged, libc.ReadFileStaged + 1, 65537, 200000} {
			want := make([]byte, n)
			for i := range want {
				want[i] = byte(i * 7)
			}
			path := fmt.Sprintf("/tmp/f%d", n)
			if err := lt.WriteFile(path, want, 0o644); err != sys.OK {
				lt.Printf("write %d: %v\n", n, err)
				return 1
			}
			got, err := lt.ReadFile(path)
			if err != sys.OK || !bytes.Equal(got, want) {
				lt.Printf("%d bytes: read back %d bytes, err %v\n", n, len(got), err)
				return 1
			}
			if n <= libc.ReadFileStaged && cap(got) != len(got) {
				lt.Printf("%d bytes: cap %d\n", n, cap(got))
			}
			if n > 8192 {
				continue
			}
			// Opening and closing the file allocates in the kernel;
			// reading it whole must add only the result.
			open := testing.AllocsPerRun(20, func() {
				fd, _ := lt.Open(path, sys.O_RDONLY, 0)
				lt.Close(fd)
			})
			if a := testing.AllocsPerRun(20, func() { lt.ReadFile(path) }); a != open+1 {
				lt.Printf("%d bytes: %.0f allocations per ReadFile, %.0f per open and close\n", n, a, open)
			}
		}
		return 0
	})
	if out := ok(t, st, out); out != "" {
		t.Fatal(out)
	}
}

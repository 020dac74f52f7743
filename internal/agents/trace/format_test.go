package trace

import (
	"fmt"
	"math"
	"testing"
)

// formatCases covers every verb, flag and argument type the call banners
// pass, at the values where fmt's rules differ: negatives, zero under #,
// the extremes of each type, and strings that need escaping.
func formatCases() (formats []string, args []any) {
	formats = []string{"%d", "%x", "%#x", "%#o", "0x%x", "%q", "%s"}
	ints := []int64{0, 1, -1, 7, 8, -8, 0o755, 255, 256, -256, 0x101000,
		math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	for _, v := range ints {
		args = append(args, int(v), int32(v), uint32(v), v, uint64(v))
	}
	strs := []string{"", "/tmp/t.txt", `q"uote`, "tab\there\n", "\x00\x01\x7f",
		"\xff\xfe", "é✓", " ", "a\\b"}
	for _, s := range strs {
		args = append(args, s)
	}
	args = append(args, []string(nil), []string{}, strs, []string{"echo", "two words"})
	return formats, args
}

func TestAppendfMatchesFmt(t *testing.T) {
	formats, args := formatCases()
	for _, f := range formats {
		for _, a := range args {
			checkAppendf(t, "<"+f+">", a)
		}
	}
	// Whole banners as the agent writes them, plus formats appendf
	// leaves to fmt: other verbs and flags, widths, missing and extra
	// arguments, a trailing '%'. (A table, so vet does not reject the
	// malformed ones.)
	for _, c := range []struct {
		format string
		args   []any
	}{
		{"open(%q, %#x, %#o)", []any{"/x", 0x601, uint32(0o640)}},
		{"execve(%q, %q, 0x%x)", []any{"/bin/echo", []string{"echo", "a b"}, uint32(0x100a58)}},
		{"lseek(%d, %d, %d)", []any{3, int32(-5), 0}},
		{"sigvec(%s, 0x%x, 0x%x)", []any{"SIGUSR1", uint32(0x100800), uint32(0)}},
		{"getpid()", nil},
		{"100%% %d", []any{1}},
		{"%v %+d %5d %-q %#q %X %#d %c", []any{1, 2, 3, "a", "b", 4, 5, 'c'}},
		{"%d %d", []any{1}},
		{"%d", []any{1, 2}},
		{"%d", []any{uint8(1)}},
		{"%s", []any{[]string{"a"}}},
		{"%q", []any{nil}},
		{"tail %", nil},
		{"tail %#", []any{1}},
		{"%#%", []any{1}},
		{"%[1]d", []any{1}},
	} {
		checkAppendf(t, c.format, c.args...)
	}
}

func checkAppendf(t *testing.T, format string, args ...any) {
	t.Helper()
	want := fmt.Sprintf(format, args...)
	if got := string(appendf([]byte("pre"), format, args...)); got != "pre"+want {
		t.Errorf("appendf(%q, %#v) = %q, want %q", format, args, got, "pre"+want)
	}
}

// FuzzTraceFormat checks appendf against fmt.Sprintf, the reference, on
// arbitrary formats. The argument list is drawn from the types the agent
// passes (int, int32, uint32, string, []string), plus int64, which it
// leaves to fmt, by three bits of kinds per argument; a format appendf
// does not expand must still come out as fmt would write it.
func FuzzTraceFormat(f *testing.F) {
	f.Add("open(%q, %#x, %#o)", int64(0x601), "/tmp/t.txt", "", uint16(0o30))
	f.Add("execve(%q, %q, 0x%x)", int64(0x100a58), "/bin/echo", "two words", uint16(0o243))
	f.Add("lseek(%d, %d, %d)", int64(-5), "", "", uint16(0o111))
	f.Add("%#x %#o %x", int64(0), "", "", uint16(0o222))
	f.Add("%#o %#x %d", int64(-8), "", "", uint16(0))
	f.Add("%s %q", int64(0), "\t\"\xff\x00é", "", uint16(0o44))
	f.Add("%d%%%q%5d%", int64(math.MinInt64), "q", "", uint16(0o3334))
	f.Fuzz(func(t *testing.T, format string, n int64, s, s2 string, kinds uint16) {
		var args []any
		for k := kinds; k != 0; k >>= 3 {
			switch k & 7 {
			case 1:
				args = append(args, int(n))
			case 2:
				args = append(args, int32(n))
			case 3:
				args = append(args, uint32(n))
			case 4:
				args = append(args, s)
			case 5:
				args = append(args, []string{s, s2})
			case 6:
				args = append(args, n)
			case 7:
				args = append(args, s2)
			}
		}
		want := fmt.Sprintf(format, args...)
		if got := string(appendf(nil, format, args...)); got != want {
			t.Fatalf("appendf(%q, %#v) = %q, want %q", format, args, got, want)
		}
	})
}

//go:build race

package libc_test

const raceEnabled = true

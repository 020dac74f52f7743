package sys

// System call numbers, following the historical 4.3BSD numbering where a
// call existed there. The set below is the portion of the 4.3BSD interface
// implemented by the simulated kernel and understood by the toolkit's
// symbolic system call layer.
const (
	SYS_exit          = 1
	SYS_fork          = 2
	SYS_read          = 3
	SYS_write         = 4
	SYS_open          = 5
	SYS_close         = 6
	SYS_wait4         = 7
	SYS_creat         = 8
	SYS_link          = 9
	SYS_unlink        = 10
	SYS_chdir         = 12
	SYS_fchdir        = 13
	SYS_mknod         = 14
	SYS_chmod         = 15
	SYS_chown         = 16
	SYS_brk           = 17
	SYS_lseek         = 19
	SYS_getpid        = 20
	SYS_setuid        = 23
	SYS_getuid        = 24
	SYS_geteuid       = 25
	SYS_access        = 33
	SYS_sync          = 36
	SYS_kill          = 37
	SYS_stat          = 38
	SYS_getppid       = 39
	SYS_lstat         = 40
	SYS_dup           = 41
	SYS_pipe          = 42
	SYS_getegid       = 43
	SYS_getgid        = 47
	SYS_ioctl         = 54
	SYS_symlink       = 57
	SYS_readlink      = 58
	SYS_execve        = 59
	SYS_umask         = 60
	SYS_chroot        = 61
	SYS_fstat         = 62
	SYS_getpagesize   = 64
	SYS_getgroups     = 79
	SYS_setgroups     = 80
	SYS_getpgrp       = 81
	SYS_setpgrp       = 82
	SYS_setitimer     = 83
	SYS_getitimer     = 86
	SYS_gethostname   = 87
	SYS_sethostname   = 88
	SYS_getdtablesize = 89
	SYS_dup2          = 90
	SYS_fcntl         = 92
	SYS_fsync         = 95
	SYS_sigvec        = 108
	SYS_sigblock      = 109
	SYS_sigsetmask    = 110
	SYS_sigpause      = 111
	SYS_gettimeofday  = 116
	SYS_getrusage     = 117
	SYS_settimeofday  = 122
	SYS_rename        = 128
	SYS_truncate      = 129
	SYS_ftruncate     = 130
	SYS_flock         = 131
	SYS_mkdir         = 136
	SYS_rmdir         = 137
	SYS_utimes        = 138
	SYS_setsid        = 147
	SYS_getrlimit     = 144
	SYS_setrlimit     = 145
	SYS_getdirentries = 156

	// MaxSyscall is one past the highest valid system call number; tables
	// indexed by call number have this length.
	MaxSyscall = 160
)

// sysName maps call numbers to their traditional names.
var sysName = [MaxSyscall]string{
	SYS_exit:          "exit",
	SYS_fork:          "fork",
	SYS_read:          "read",
	SYS_write:         "write",
	SYS_open:          "open",
	SYS_close:         "close",
	SYS_wait4:         "wait4",
	SYS_creat:         "creat",
	SYS_link:          "link",
	SYS_unlink:        "unlink",
	SYS_chdir:         "chdir",
	SYS_fchdir:        "fchdir",
	SYS_mknod:         "mknod",
	SYS_chmod:         "chmod",
	SYS_chown:         "chown",
	SYS_brk:           "brk",
	SYS_lseek:         "lseek",
	SYS_getpid:        "getpid",
	SYS_setuid:        "setuid",
	SYS_getuid:        "getuid",
	SYS_geteuid:       "geteuid",
	SYS_access:        "access",
	SYS_sync:          "sync",
	SYS_kill:          "kill",
	SYS_stat:          "stat",
	SYS_getppid:       "getppid",
	SYS_lstat:         "lstat",
	SYS_dup:           "dup",
	SYS_pipe:          "pipe",
	SYS_getegid:       "getegid",
	SYS_getgid:        "getgid",
	SYS_ioctl:         "ioctl",
	SYS_symlink:       "symlink",
	SYS_readlink:      "readlink",
	SYS_execve:        "execve",
	SYS_umask:         "umask",
	SYS_chroot:        "chroot",
	SYS_fstat:         "fstat",
	SYS_getpagesize:   "getpagesize",
	SYS_getgroups:     "getgroups",
	SYS_setgroups:     "setgroups",
	SYS_getpgrp:       "getpgrp",
	SYS_setpgrp:       "setpgrp",
	SYS_setitimer:     "setitimer",
	SYS_getitimer:     "getitimer",
	SYS_gethostname:   "gethostname",
	SYS_sethostname:   "sethostname",
	SYS_getdtablesize: "getdtablesize",
	SYS_dup2:          "dup2",
	SYS_fcntl:         "fcntl",
	SYS_fsync:         "fsync",
	SYS_sigvec:        "sigvec",
	SYS_sigblock:      "sigblock",
	SYS_sigsetmask:    "sigsetmask",
	SYS_sigpause:      "sigpause",
	SYS_gettimeofday:  "gettimeofday",
	SYS_getrusage:     "getrusage",
	SYS_settimeofday:  "settimeofday",
	SYS_rename:        "rename",
	SYS_truncate:      "truncate",
	SYS_ftruncate:     "ftruncate",
	SYS_flock:         "flock",
	SYS_mkdir:         "mkdir",
	SYS_rmdir:         "rmdir",
	SYS_utimes:        "utimes",
	SYS_setsid:        "setsid",
	SYS_getrlimit:     "getrlimit",
	SYS_setrlimit:     "setrlimit",
	SYS_getdirentries: "getdirentries",
}

// SyscallName returns the traditional name of a system call number, or a
// numeric placeholder for numbers outside the implemented set.
func SyscallName(num int) string {
	if num >= 0 && num < MaxSyscall && sysName[num] != "" {
		return sysName[num]
	}
	return "syscall#" + itoa(num)
}

// ValidSyscall reports whether num names an implemented system call.
func ValidSyscall(num int) bool {
	return num >= 0 && num < MaxSyscall && sysName[num] != ""
}

// Syscalls returns the sorted list of implemented system call numbers.
func Syscalls() []int {
	var out []int
	for n, name := range sysName {
		if name != "" {
			out = append(out, n)
		}
	}
	return out
}

// SyscallByName resolves a traditional system call name ("open") to its
// number, the inverse of SyscallName.
func SyscallByName(name string) (int, bool) {
	for n, s := range sysName {
		if s == name && s != "" { // unimplemented numbers have no name
			return n, true
		}
	}
	return 0, false
}

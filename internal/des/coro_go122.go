//go:build !go1.23

package des

// The engine resumes processes as iter.Pull coroutines (coro.go), so
// this package needs Go 1.23 or newer.  go.mod's go directive stays at
// 1.22 for the benchmark module's sake, which leaves older toolchains to
// fail here, with an error that names the minimum, rather than at
// the first use of pull.
var _ = des_requires_go1_23_or_newer

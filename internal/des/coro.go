//go:build go1.23

package des

import "iter"

// pull turns a process body into a coroutine and returns its resume
// function: each call runs the body until it yields (true) or returns
// (false), and a panic in the body re-raises in the caller.  An
// iter.Pull switch hands the thread straight to the other goroutine,
// bypassing the Go scheduler.  This is the package's only use of iter,
// kept in a file of its own because the module's go directive (1.22)
// predates the package; the build constraint raises this file's
// language version instead, and coro_go122.go stops older toolchains
// with an error naming the minimum.
func pull(body func(yield func(struct{}) bool)) func() (struct{}, bool) {
	next, _ := iter.Pull(iter.Seq[struct{}](body))
	return next
}

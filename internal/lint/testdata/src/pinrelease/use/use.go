// Package use exercises the pin-release rule: the one accepted handler
// shape, shapes that leak or cannot be shown to release, and escapes of
// the pinned snapshot.
package use

import "example.com/pinrelease/store"

// Deferred is clean: a defer installed by the next statement covers
// every exit.
func Deferred(st *store.Store) int {
	snap, release := st.Acquire()
	defer release()
	if snap == nil {
		return 0
	}
	return snap.V
}

// DeferredClosure is rejected: the release runs inside a deferred
// closure, not as `defer release()`.
func DeferredClosure(st *store.Store) int {
	snap, release := st.Acquire()
	defer func() {
		release()
	}()
	return snap.V
}

// Explicit is rejected: its one path releases before the return, but
// only a deferred release is accepted.
func Explicit(st *store.Store) int {
	snap, release := st.Acquire()
	v := snap.V
	release()
	return v
}

// Discarded leaks: the release func is thrown away.
func Discarded(st *store.Store) int {
	snap, _ := st.Acquire()
	return snap.V
}

// Dropped leaks: the Acquire result is not captured at all.
func Dropped(st *store.Store) {
	st.Acquire()
}

// LateDefer leaks on the early return: the defer is installed after an
// exit that skips it.
func LateDefer(st *store.Store) int {
	snap, release := st.Acquire()
	if snap == nil {
		return 0
	}
	defer release()
	return snap.V
}

// LeakyPath leaks on the first return: only the second path releases.
func LeakyPath(st *store.Store) int {
	snap, release := st.Acquire()
	if snap.V > 0 {
		return snap.V
	}
	release()
	return 0
}

// NeverReleased leaks outright: the release func is never invoked.
func NeverReleased(st *store.Store) int {
	snap, release := st.Acquire()
	_ = release
	return snap.V
}

// holder outlives any single request.
type holder struct {
	snap    *store.Snapshot
	release func()
}

// Escapes moves both the pinned snapshot and its release func into a
// struct that outlives the call: the snapshot escape and the missing
// defer are two findings.
func Escapes(st *store.Store, h *holder) {
	snap, release := st.Acquire()
	h.snap = snap
	h.release = release
}

// Goroutine hands the release to a goroutine: the pin's lifetime is no
// longer tied to the acquiring path.
func Goroutine(st *store.Store) {
	_, release := st.Acquire()
	go func() {
		release()
	}()
}

// closer collects shutdown work.
type closer struct{ fns []func() }

func (c *closer) add(f func()) { c.fns = append(c.fns, f) }

// Threaded is rejected: the release is passed into a call that would
// own the shutdown from here on.
func Threaded(st *store.Store, c *closer) {
	_, release := st.Acquire()
	c.add(release)
}

// ReleasedTwice defers the release and then calls it again: the defer
// must be the release's only use.
func ReleasedTwice(st *store.Store) int {
	snap, release := st.Acquire()
	defer release()
	v := snap.V
	release()
	return v
}

// Reassigned pins into variables declared earlier: only a := into new
// names is accepted.
func Reassigned(st *store.Store) int {
	var snap *store.Snapshot
	var release func()
	snap, release = st.Acquire()
	defer release()
	return snap.V
}

// Annotated stores the release into a struct field — not the accepted
// shape — with the documented ignore escape hatch.
func Annotated(st *store.Store, h *holder) {
	//p2olint:ignore pin-release release is threaded into the holder's Close, which the caller always runs
	_, release := st.Acquire()
	h.release = release
}

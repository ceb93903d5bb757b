// Fixture for the release that sits behind the host-worker kit: the kit
// sends the response and then calls the model's hook, so the hook's own
// package never sees the releasing event. A kit-hook-shaped function is
// held to the deferred-release rule regardless.
package core

import (
	"mindgap/internal/cores"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

// hookNotifyStale re-reads the request's identity after the kit's respond
// event may have recycled it.
func hookNotifyStale(recv, obj any, _ uint64) {
	w := recv.(*worker)
	req := obj.(*task.Request)
	w.credits++
	_ = req.ID // want `read of recyclable field ID in event callback hookNotifyStale, which can fire after the host-worker kit's respond event releases the request back to the pool \(finished is a kit hook: the response is already on the wire when it runs\); snapshot the field into the event arg at build time or guard the read with a Gen compare`
}

// hookNotifySnapshot is the fixed shape: the identity rides in the arg.
func hookNotifySnapshot(recv, obj any, id uint64) {
	w := recv.(*worker)
	w.credits++
	_, _ = obj.(*task.Request), id
}

// finished has the kit's hook shape.
func (s *sys) finished(kw *cores.Worker, req *task.Request, built sim.Time) {
	w := &worker{s: s}
	kw.After(built, 1, hookNotifyStale, w, req, 0)
	kw.After(built, 1, hookNotifySnapshot, w, req, req.ID)
}

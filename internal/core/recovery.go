package core

// Verdict is Recovery's answer to one input: the Logic call to make next.
type Verdict uint8

const (
	// Stale: not from the believed-live attempt; its credit was already
	// reclaimed. Ignore the input.
	Stale Verdict = iota
	// Accept: FINISH → Logic.CompleteTo, PREEMPTED → Logic.PreemptedTo, a
	// response → the client. The last expiry of a request the client has
	// been answered is accepted like its FINISH: Logic.CompleteTo, no drop.
	Accept
	// Retry: Logic.CompleteTo, then Logic.EnqueueTo a fresh attempt at the tail.
	Retry
	// Abandon: Logic.CompleteTo, and the caller counts one drop.
	Abandon
	// Duplicate: the client was answered already, or the request abandoned.
	Duplicate
)

// Recovery is the loss-recovery protocol between the dispatcher and its
// workers (DESIGN.md, "Recovery protocol"), a pure state machine beside
// Logic: Logic decides where a request goes, Recovery whether what comes
// back still counts. It holds one record per request whose latest attempt
// it believes live: dispatched, or queued again after a PREEMPTED or an
// expiry. K names a request; T is the attempt token the caller supplies at
// dispatch and the transport echoes. The transport keeps only timers and
// frames, indexed by the small dense slot a record owns for its lifetime.
type Recovery[K, T comparable] struct {
	retries int  // expiries per request answered Retry; the next abandons
	dedupe  bool // Responded stands in for the client side
	recs    map[K]attempt[T]
	free    []int32 // released slots
	slots   int32   // slots ever handed out
}

// attempt is what Recovery believes about a request's latest attempt.
type attempt[T comparable] struct {
	token     T
	worker    int32 // believed location, or queued, or closed
	slot      int32
	ordinal   int32 // expiries answered Retry so far
	responded bool
}

const (
	queued = -1 // in the central queue, awaiting dispatch
	closed = -2 // terminal, kept only to dedupe a late response
)

// NewRecovery makes a machine that answers Retry to a request's first
// retries expiries and Abandon to the next. dedupe says client responses
// come through Responded (the simulator) instead of the clients deduping
// for themselves (live); without it no record outlives its request.
func NewRecovery[K, T comparable](retries int, dedupe bool) *Recovery[K, T] {
	return &Recovery[K, T]{retries: retries, dedupe: dedupe, recs: make(map[K]attempt[T])}
}

// Len returns the number of records held.
func (r *Recovery[K, T]) Len() int { return len(r.recs) }

// Attempt returns the ordinal of k's current attempt.
func (r *Recovery[K, T]) Attempt(k K) int { return int(r.recs[k].ordinal) }

// Dispatched makes k's attempt t on worker the believed-live attempt and
// returns the record's slot and the attempt's ordinal (for backoff).
//
//mindgap:noalloc
func (r *Recovery[K, T]) Dispatched(k K, t T, worker int) (slot, ordinal int) {
	a, ok := r.recs[k]
	if !ok || a.worker == closed {
		a = attempt[T]{slot: r.slots}
		if n := len(r.free); n > 0 {
			a.slot, r.free = r.free[n-1], r.free[:n-1]
		} else {
			r.slots++
		}
	}
	a.token, a.worker = t, int32(worker)
	r.recs[k] = a
	return int(a.slot), int(a.ordinal)
}

// Finish, Preempted and Expired judge an ack, or the expiry of the timer
// guarding a dispatch, that names k's attempt t on worker, and return the
// record's slot. An accepted FINISH retires the record; an accepted
// PREEMPTED queues the request again, its next dispatch continuing the same
// attempt; Retry queues it under the next ordinal; Abandon retires the
// record and refuses any response still to come.
//
//mindgap:noalloc
func (r *Recovery[K, T]) Finish(k K, t T, worker int) (Verdict, int) {
	return r.judge(k, t, worker, Accept, true)
}

//mindgap:noalloc
func (r *Recovery[K, T]) Preempted(k K, t T, worker int) (Verdict, int) {
	return r.judge(k, t, worker, Accept, false)
}

//mindgap:noalloc
func (r *Recovery[K, T]) Expired(k K, t T, worker int) (Verdict, int) {
	return r.judge(k, t, worker, Retry, false)
}

// judge answers Stale unless (t, worker) is k's believed-live attempt; then
// it answers v and retires the record or queues the request again.
//
//mindgap:noalloc
func (r *Recovery[K, T]) judge(k K, t T, worker int, v Verdict, retire bool) (Verdict, int) {
	a, ok := r.recs[k]
	if !ok || worker < 0 || int(a.worker) != worker || a.token != t {
		return Stale, -1
	}
	if v == Retry && int(a.ordinal) >= r.retries {
		v, retire = Abandon, true
		if a.responded {
			v = Accept // only the FINISH was lost
		}
	}
	a.worker = queued
	if v == Retry {
		a.ordinal++
	}
	if retire {
		a.worker, a.responded = closed, a.responded || v == Abandon
		r.free = append(r.free, a.slot)
	}
	// A retired record stays only to dedupe a superseded attempt's response
	// or refuse an abandoned request's.
	if retire && !(r.dedupe && (v == Abandon || a.ordinal > 0)) {
		delete(r.recs, k)
	} else {
		r.recs[k] = a
	}
	return v, int(a.slot)
}

// census counts the records believed live on each of workers, and the
// closed stubs.
func (r *Recovery[K, T]) census(workers int) (live []int, stubs uint64) {
	live = make([]int, workers)
	for _, a := range r.recs {
		if a.worker >= 0 {
			live[a.worker]++
		} else if a.worker == closed {
			stubs++
		}
	}
	return live, stubs
}

// Responded judges a response about to reach k's client: Accept for the
// first, Duplicate for any later one or an abandoned request.
//
//mindgap:noalloc
func (r *Recovery[K, T]) Responded(k K) Verdict {
	a, ok := r.recs[k]
	if !ok {
		return Accept
	}
	if a.responded {
		return Duplicate
	}
	a.responded = true
	r.recs[k] = a
	return Accept
}

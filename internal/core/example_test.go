package core_test

import (
	"fmt"
	"time"

	"mindgap/internal/core"
	"mindgap/internal/task"
)

// The scheduler state machine by hand: two workers with one credit each,
// three requests, a completion, and a preemption.
func ExampleLogic() {
	lgc := core.NewLogic(2, 1, core.LeastOutstanding)

	r1 := task.New(1, 0, 5*time.Microsecond)
	r2 := task.New(2, 0, 5*time.Microsecond)
	r3 := task.New(3, 0, 100*time.Microsecond)

	for _, r := range []*task.Request{r1, r2, r3} {
		for _, a := range lgc.EnqueueTo(nil, 0, r) {
			fmt.Printf("request %d → worker %d\n", a.Req.ID, a.Worker)
		}
	}
	fmt.Printf("queued: %d\n", lgc.QueueLen())

	// Worker 0 finishes request 1: the queued request 3 dispatches.
	for _, a := range lgc.CompleteTo(nil, 0) {
		fmt.Printf("request %d → worker %d\n", a.Req.ID, a.Worker)
	}

	// Worker 0 preempts request 3: it requeues at the tail (empty queue,
	// so it re-dispatches immediately — possibly to another worker).
	for _, a := range lgc.PreemptedTo(nil, 50_000, 0, r3) {
		fmt.Printf("request %d resumes on worker %d (remaining %v)\n",
			a.Req.ID, a.Worker, a.Req.Remaining)
	}
	// Output:
	// request 1 → worker 0
	// request 2 → worker 1
	// queued: 1
	// request 3 → worker 0
	// request 3 resumes on worker 0 (remaining 100µs)
}

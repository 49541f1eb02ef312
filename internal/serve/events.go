package serve

import (
	"context"
	"sync"
)

// Event is one per-run completion on a job's event stream. Seq is the
// event's position on the stream within this daemon lifetime — the SSE
// id: field — so a subscriber that reconnects with ?from=N (or a
// Last-Event-ID header) replays exactly the suffix it missed. After a
// daemon restart the stream rebuilds: already-checkpointed completions
// replay first, in expansion-index order, before live completions
// resume.
type Event struct {
	Seq   int    `json:"seq"`
	Index int    `json:"index"`
	Desc  string `json:"desc"`
	// Done/Total is the job's progress at this completion; Done is
	// always Seq+1.
	Done       int     `json:"done"`
	Total      int     `json:"total"`
	Crashed    bool    `json:"crashed,omitempty"`
	CrashCause string  `json:"crash_cause,omitempty"`
	IPC        float64 `json:"ipc"`
	Recoveries int     `json:"recoveries"`
}

// End is the terminal frame of a job's event stream.
type End struct {
	State          string `json:"state"`
	Runs           int    `json:"runs"`
	Crashes        int    `json:"crashes"`
	ExpectFailures int    `json:"expect_failures"`
	Error          string `json:"error,omitempty"`
}

// hub buffers a job's events for replay and wakes blocked subscribers
// on news. It holds every event of the daemon lifetime (events are
// small and bounded by the campaign's run count), so any subscriber can
// replay from any index without per-subscriber queues — a slow consumer
// lags, it never stalls the publisher or loses frames.
type hub struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []Event
	end    *End
}

func newHub() *hub {
	h := &hub{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// publish appends one completion event, assigning its stream position.
func (h *hub) publish(e Event) {
	h.mu.Lock()
	e.Seq = len(h.events)
	e.Done = e.Seq + 1
	h.events = append(h.events, e)
	h.mu.Unlock()
	h.cond.Broadcast()
}

// finish ends the stream; subscribers drain buffered events and then
// receive the terminal frame. finish is idempotent (the first End
// wins), so an executor error path and a later status replay cannot
// fight.
func (h *hub) finish(end End) {
	h.mu.Lock()
	if h.end == nil {
		h.end = &end
	}
	h.mu.Unlock()
	h.cond.Broadcast()
}

// done reports the number of events published so far.
func (h *hub) done() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.events)
}

// wait blocks until the stream holds events past cursor or has ended,
// returning the new events (a copy) and the terminal frame when — and
// only when — every buffered event up to it has been handed out. A
// canceled context returns its error.
func (h *hub) wait(ctx context.Context, cursor int) ([]Event, *End, error) {
	// Wake every waiter when the subscriber's context ends; each waiter
	// rechecks its own context below. The broadcast takes h.mu so it
	// cannot fall between a waiter's ctx.Err check and its cond.Wait,
	// where it would wake nobody and leave the waiter asleep.
	stop := context.AfterFunc(ctx, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.cond.Broadcast()
	})
	defer stop()

	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if len(h.events) > cursor {
			evs := make([]Event, len(h.events)-cursor)
			copy(evs, h.events[cursor:])
			return evs, nil, nil
		}
		if h.end != nil {
			return nil, h.end, nil
		}
		h.cond.Wait()
	}
}

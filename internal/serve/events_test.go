package serve

import (
	"context"
	"testing"
	"time"
)

// TestHubWaitReturnsOnCancel: a subscriber blocked in hub.wait returns
// promptly once its context is canceled, however the cancel interleaves
// with the waiter's own context check and its sleep. Each iteration
// races one cancel against several waiters going to sleep on a hub that
// never publishes; a lost wakeup leaves a waiter asleep past the
// deadline.
func TestHubWaitReturnsOnCancel(t *testing.T) {
	const iterations, waiters = 500, 8
	h := newHub()
	for i := 0; i < iterations; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, waiters)
		for w := 0; w < waiters; w++ {
			go func() {
				_, _, err := h.wait(ctx, 0)
				errc <- err
			}()
		}
		if i%2 == 1 {
			time.Sleep(time.Duration(i%7) * time.Microsecond)
		}
		cancel()
		deadline := time.After(2 * time.Second)
		for w := 0; w < waiters; w++ {
			select {
			case err := <-errc:
				if err != context.Canceled {
					t.Fatalf("iteration %d: wait returned %v, want context.Canceled", i, err)
				}
			case <-deadline:
				t.Fatalf("iteration %d: %d waiters still blocked 2s after cancel", i, waiters-w)
			}
		}
	}
}

// cancelOnCheckCtx cancels itself during the first Err call and still
// reports "not canceled" to it, then stalls there long enough for the
// cancel's wakeup to fire. To hub.wait this is a cancel landing exactly
// between its context check and its sleep.
type cancelOnCheckCtx struct {
	context.Context
	cancel context.CancelFunc
	checks int // touched only by the waiting goroutine
}

func (c *cancelOnCheckCtx) Err() error {
	c.checks++
	if c.checks == 1 {
		c.cancel()
		time.Sleep(10 * time.Millisecond)
		return nil
	}
	return c.Context.Err()
}

// TestHubWaitCancelBetweenCheckAndSleep pins the interleaving that lost
// the wakeup: the subscriber's context is canceled after wait has found
// it live but before wait sleeps. The wakeup must still reach the
// waiter.
func TestHubWaitCancelBetweenCheckAndSleep(t *testing.T) {
	h := newHub()
	ctx, cancel := context.WithCancel(context.Background())
	rctx := &cancelOnCheckCtx{Context: ctx, cancel: cancel}
	errc := make(chan error, 1)
	go func() {
		_, _, err := h.wait(rctx, 0)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("wait returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("wait still blocked 2s after its context was canceled")
	}
}

package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("clock should advance to until when idle, got %d", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events must fire in scheduling order, got %v", order)
		}
	}
}

func TestEngineRunUntilBoundary(t *testing.T) {
	e := NewEngine()
	ran := map[Time]bool{}
	e.Schedule(10, func() { ran[10] = true })
	e.Schedule(11, func() { ran[11] = true })
	e.Run(10)
	if !ran[10] {
		t.Fatal("event at the until boundary must run")
	}
	if ran[11] {
		t.Fatal("event past the boundary must not run")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run(11)
	if !ran[11] {
		t.Fatal("resumed run must dispatch the remaining event")
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(50, func() {})
	e.Run(50)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	e.Schedule(10, func() {})
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(7, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run(1000)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Executed() != 5 {
		t.Fatalf("executed = %d, want 5", e.Executed())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1, func() { ran++; e.Stop() })
	e.Schedule(2, func() { ran++ })
	e.Run(10)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (Stop must halt dispatch)", ran)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() must report true after Stop")
	}
}

func TestEngineCancelable(t *testing.T) {
	e := NewEngine()
	fired := false
	cancel := e.ScheduleCancelable(10, func() { fired = true })
	cancel.Cancel()
	e.Run(20)
	if fired {
		t.Fatal("canceled event must not fire")
	}
	// Canceling twice, or after the window, is harmless.
	cancel.Cancel()

	fired2 := false
	c2 := e.ScheduleCancelable(30, func() { fired2 = true })
	e.Run(40)
	if !fired2 {
		t.Fatal("non-canceled event must fire")
	}
	c2.Cancel() // after firing: no-op
}

// A Canceler must stay inert after its event fired, even when the slot
// has been recycled for a newer event (the generation count protects the
// new occupant).
func TestEngineCancelAfterFireDoesNotKillReusedSlot(t *testing.T) {
	e := NewEngine()
	c1 := e.ScheduleCancelable(5, func() {})
	e.Run(10)
	fired := false
	// The freed slot is recycled for this event.
	e.ScheduleCancelable(20, func() { fired = true })
	c1.Cancel() // stale handle: generation mismatch, must be a no-op
	e.Run(30)
	if !fired {
		t.Fatal("stale Cancel killed an unrelated rescheduled event")
	}
}

// The zero-value Canceler cancels nothing and never panics.
func TestEngineZeroCanceler(t *testing.T) {
	var c Canceler
	c.Cancel()
	c.Cancel()
}

func TestEngineDrain(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5, func() { fired = true })
	e.Schedule(6, func() { fired = true })
	e.Drain()
	if e.Pending() != 0 {
		t.Fatalf("pending after drain = %d, want 0", e.Pending())
	}
	e.Run(10)
	if fired {
		t.Fatal("drained events must not fire")
	}
	// The engine remains usable after a drain.
	ok := false
	e.Schedule(20, func() { ok = true })
	e.Run(20)
	if !ok {
		t.Fatal("engine must accept events after drain")
	}
}

// Same-cycle FIFO order must hold even when the tied events entered the
// queue through different paths: one beyond the calendar window (overflow
// heap, migrated into its bucket as the window slides) and one scheduled
// directly into the window later.
func TestEngineFIFOTiesAcrossBucketBoundary(t *testing.T) {
	e := NewEngine()
	far := Time(3 * wheelSize) // well beyond the initial window
	var order []int
	e.Schedule(far, func() { order = append(order, 1) }) // via overflow
	e.Schedule(far-1, func() {
		// By now the window covers far: this lands in the bucket the
		// overflow event migrated into, and must fire after it.
		e.Schedule(far, func() { order = append(order, 2) })
	})
	e.Run(far + 1)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("overflow-migrated event must keep FIFO priority, got %v", order)
	}
}

// Two pending events whose cycles are congruent modulo the wheel size must
// not share a bucket list: the later one sits in the overflow until the
// window reaches it.
func TestEngineCongruentCyclesStaySorted(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(5+wheelSize, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Run(5 + 2*wheelSize)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("congruent cycles dispatched out of order: %v", order)
	}
}

// Drain must also discard overflow events, and the engine must accept and
// dispatch new near- and far-horizon work afterwards.
func TestEngineDrainDiscardsOverflowThenReschedules(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(3, func() { fired = true })
	e.Schedule(10*wheelSize, func() { fired = true })
	c := e.ScheduleCancelable(7, func() { fired = true })
	e.Drain()
	if e.Pending() != 0 {
		t.Fatalf("pending after drain = %d, want 0", e.Pending())
	}
	c.Cancel() // stale handle into a drained slot: must be a no-op
	var order []int
	e.Schedule(2*wheelSize, func() { order = append(order, 2) })
	e.Schedule(50, func() { order = append(order, 1) })
	e.Run(3 * wheelSize)
	if fired {
		t.Fatal("drained events must not fire")
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("post-drain dispatch order wrong: %v", order)
	}
}

// Scheduling at exactly Now() between runs must dispatch promptly and in
// time order, even when the previous Run dispatched an event exactly at
// its until boundary with later events still pending (the window must not
// slide past the clock).
func TestEngineScheduleAtNowAfterBoundaryRun(t *testing.T) {
	e := NewEngine()
	var order []int
	var times []Time
	e.Schedule(100, func() { order = append(order, 1); times = append(times, e.Now()) })
	e.Schedule(150, func() { order = append(order, 3); times = append(times, e.Now()) })
	e.Run(100) // fires the cycle-100 event; the cycle-150 event stays pending
	e.Schedule(e.Now(), func() { order = append(order, 2); times = append(times, e.Now()) })
	e.Run(1000)
	want := []int{1, 2, 3}
	wantT := []Time{100, 100, 150}
	for i := range want {
		if i >= len(order) || order[i] != want[i] || times[i] != wantT[i] {
			t.Fatalf("dispatch (order, time) = (%v, %v), want (%v, %v)", order, times, want, wantT)
		}
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("clock ran backwards: %v", times)
		}
	}
}

// When an idle Run re-anchors the window at the clock, overflow events the
// raised horizon now covers must keep FIFO priority over same-cycle events
// scheduled directly afterwards.
func TestEngineFIFOAfterIdleRunReanchor(t *testing.T) {
	e := NewEngine()
	far := wheelSize + 8
	var order []int
	e.Schedule(far, func() { order = append(order, 1) }) // overflow at schedule time
	e.Run(100)                                           // idle: re-anchors the window at 100, far is now inside it
	e.Schedule(far, func() { order = append(order, 2) }) // same cycle, later seq
	e.Run(2 * wheelSize)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("re-anchor broke FIFO within cycle %d: %v", far, order)
	}
}

// Property: for any set of (time, id) pairs, dispatch order is sorted by
// time with FIFO tie-break.
func TestEngineDispatchOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			at := Time(d)
			i := i
			e.Schedule(at, func() { got = append(got, rec{at, i}) })
		}
		e.Run(1 << 20)
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].at > got[i].at {
				return false
			}
			if got[i-1].at == got[i].at && got[i-1].seq > got[i].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineIntrinsicEventOrder pins the within-cycle order on a literal
// trace: owners dispatch in ascending order with the global owner -1
// first; an owner's local schedules — including ones made while the cycle
// is already dispatching — fire before posts to it; and posts order by
// (source owner, source sequence) whatever order they were made in, with
// posts from ownerless setup code (source -1) first. The script runs once
// inside the wheel and once far enough out to pass through the overflow
// heap.
func TestEngineIntrinsicEventOrder(t *testing.T) {
	for _, at := range []Time{10, 3*wheelSize + 10} {
		e := NewEngine()
		var got []string
		rec := func(tag string) func() { return func() { got = append(got, tag) } }
		post := func(to int, tag string) {
			e.Post(to, at, func(any) { got = append(got, tag) }, nil)
		}
		local := func(owner int, fn func()) {
			prev := e.SetOwner(owner)
			e.Schedule(at, fn)
			e.SetOwner(prev)
		}
		from := func(owner int, fn func()) {
			prev := e.SetOwner(owner)
			fn()
			e.SetOwner(prev)
		}

		post(2, "setup->2")
		post(1, "setup->1")
		from(3, func() { post(1, "3->1 #0") })
		local(2, rec("2 local a"))
		local(1, func() {
			got = append(got, "1 local a")
			e.Schedule(e.Now(), rec("1 local c (same cycle)"))
		})
		from(0, func() {
			post(1, "0->1 #0")
			post(1, "0->1 #1")
		})
		local(-1, rec("global a"))
		local(1, rec("1 local b"))
		// Owner 2 posts to 1 from an event at an earlier cycle; its key
		// carries source 2, so it lands between sources 0 and 3.
		prev := e.SetOwner(2)
		e.Schedule(at-5, func() { post(1, "2->1 #0 (sent at dispatch)") })
		e.SetOwner(prev)

		e.Run(at)
		want := []string{
			"global a",
			"1 local a",
			"1 local b",
			"1 local c (same cycle)",
			"setup->1",
			"0->1 #0",
			"0->1 #1",
			"2->1 #0 (sent at dispatch)",
			"3->1 #0",
			"2 local a",
			"setup->2",
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("at=%d dispatch order\n got %q\nwant %q", at, got, want)
		}
	}
}

// trace records one dispatched event for order comparison.
type trace struct {
	At   Time
	Node int
	Tag  int
}

// pingWorkload drives a deterministic event mesh: every node runs a hop
// chain that posts to its right neighbour lat cycles later, plus a
// same-cycle local follow-up (negative tag) every third hop. drive
// performs the Run calls, so stride tests can chop them up.
func pingWorkload(nodes int, until, lat Time, drive func(*Engine)) []trace {
	e := NewEngine()
	var got []trace
	var hop func(a any)
	hop = func(a any) {
		p := a.([2]int) // node, tag
		node, tag := p[0], p[1]
		now := e.Now()
		got = append(got, trace{now, node, tag})
		if now+lat > until {
			return
		}
		next := (node + 1) % nodes
		e.Post(next, now+lat, hop, [2]int{next, tag + 1})
		if tag%3 == 0 {
			e.Schedule(now, func() { got = append(got, trace{e.Now(), node, -tag}) })
		}
	}
	for n := 0; n < nodes; n++ {
		prev := e.SetOwner(n)
		e.ScheduleArg(Time(1+n), hop, [2]int{n, n + 1})
		e.SetOwner(prev)
	}
	drive(e)
	return got
}

func runTo(until Time) func(*Engine) {
	return func(e *Engine) { e.Run(until) }
}

// TestEnginePingMeshOrder pins the ping mesh's full dispatch trace: hops
// that meet in one cycle run in owner order, whether they arrived as
// posts or as local schedules, and each local follow-up runs right after
// the hop that scheduled it.
func TestEnginePingMeshOrder(t *testing.T) {
	got := pingWorkload(3, 9, 2, runTo(9))
	want := []trace{
		{1, 0, 1},
		{2, 1, 2},
		{3, 1, 2}, {3, 2, 3}, {3, 2, -3},
		{4, 2, 3}, {4, 2, -3},
		{5, 0, 4}, {5, 2, 3}, {5, 2, -3},
		{6, 0, 4},
		{7, 0, 4}, {7, 1, 5},
		{8, 1, 5},
		{9, 1, 5}, {9, 2, 6},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ping trace\n got %v\nwant %v", got, want)
	}
}

// TestEngineStrideInvariance: chopping Run into ragged strides cannot
// change the dispatch trace.
func TestEngineStrideInvariance(t *testing.T) {
	const nodes, until, lat = 6, 1500, 10
	want := pingWorkload(nodes, until, lat, runTo(until))
	if len(want) == 0 {
		t.Fatal("workload produced no events")
	}
	got := pingWorkload(nodes, until, lat, func(e *Engine) {
		for _, stride := range []Time{7, 13, 3, 64, 1, 999, 2, 500} {
			if e.Now() >= until {
				break
			}
			e.Run(min(e.Now()+stride, until))
		}
		e.Run(until)
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("strided run diverged: %d vs %d events", len(got), len(want))
	}
}

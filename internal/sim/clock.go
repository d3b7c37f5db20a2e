// Package sim provides the discrete-event simulation kernel used across
// the FfDL reproduction: a pluggable clock (real or virtual), an event
// engine with a priority queue for pure single-threaded simulations, and
// seeded random-variate generators for workload synthesis.
//
// The live platform (internal/core, internal/kube, internal/etcd) is
// written against the Clock interface so that tests and experiments can
// run days of simulated operation in milliseconds of wall time while
// remaining deterministic.
package sim

import (
	"slices"
	"sync"
	"time"
)

// Clock abstracts time so platform components can run on either the wall
// clock or a virtual clock under test/experiment control.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// Sleep blocks until d has elapsed on this clock.
	Sleep(d time.Duration)
	// After returns a channel that receives the clock's time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) *Timer
	// NewTicker returns a ticker that fires every d.
	NewTicker(d time.Duration) *Ticker
	// Since returns the elapsed time since t on this clock.
	Since(t time.Time) time.Duration
}

// Timer is a clock-agnostic analogue of time.Timer. It holds the
// clock's own timer — a *time.Timer, or a FakeClock waiter — and
// dispatches Stop and Reset on it, so a timer costs no closure.
type Timer struct {
	// C receives the firing time.
	C <-chan time.Time

	rt *time.Timer
	fc *FakeClock
	w  *waiter
}

// Stop prevents the timer from firing. It reports whether it stopped the
// timer before it fired.
func (t *Timer) Stop() bool {
	switch {
	case t.rt != nil:
		return t.rt.Stop()
	case t.fc != nil:
		return t.fc.stopWaiter(t.w)
	}
	return false
}

// Reset changes the timer to fire once after d, as time.Timer.Reset
// does: it reports whether the timer was active, and a firing from
// before the call is not received after it. A stopped or fired timer
// may be reset, so one timer can pace a loop without a new one per wait.
func (t *Timer) Reset(d time.Duration) bool {
	switch {
	case t.rt != nil:
		return t.rt.Reset(d)
	case t.fc != nil:
		return t.fc.resetWaiter(t.w, d)
	}
	return false
}

// Ticker is a clock-agnostic analogue of time.Ticker; like Timer it
// holds the clock's own ticker rather than a closure.
type Ticker struct {
	// C receives ticks.
	C <-chan time.Time

	rt *time.Ticker
	fc *FakeClock
	w  *waiter
}

// Stop turns off the ticker.
func (t *Ticker) Stop() {
	switch {
	case t.rt != nil:
		t.rt.Stop()
	case t.fc != nil:
		t.fc.stopWaiter(t.w)
	}
}

// RealClock is a Clock backed by the time package.
type RealClock struct{}

var _ Clock = RealClock{}

// NewRealClock returns a Clock that reads the wall clock.
func NewRealClock() RealClock { return RealClock{} }

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Since implements Clock.
func (RealClock) Since(t time.Time) time.Duration { return time.Since(t) }

// NewTimer implements Clock.
func (RealClock) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, rt: t}
}

// NewTicker implements Clock.
func (RealClock) NewTicker(d time.Duration) *Ticker {
	t := time.NewTicker(d)
	return &Ticker{C: t.C, rt: t}
}

// waiter is a pending virtual-clock event: a timer, sleep or tick due at
// a deadline.
type waiter struct {
	at       time.Time
	ch       chan time.Time
	period   time.Duration // 0 for one-shot
	stopped  bool
	sequence uint64
}

// FakeClock is a manually-advanced virtual clock. All Sleep/After/Timer
// calls block until Advance (or the auto-advancer) moves virtual time past
// their deadline. The zero value is not usable; use NewFakeClock.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
	seq     uint64
	wake    chan struct{} // closed+replaced whenever waiter set changes

	autoQuit chan struct{}
	autoWG   sync.WaitGroup
}

var _ Clock = (*FakeClock)(nil)

// NewFakeClock returns a FakeClock starting at the given origin.
func NewFakeClock(origin time.Time) *FakeClock {
	return &FakeClock{now: origin, wake: make(chan struct{})}
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since implements Clock.
func (c *FakeClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Sleep implements Clock.
func (c *FakeClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-c.After(d)
}

// After implements Clock.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addWaiterLocked(d, 0).ch
}

// NewTimer implements Clock.
func (c *FakeClock) NewTimer(d time.Duration) *Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.addWaiterLocked(d, 0)
	return &Timer{C: w.ch, fc: c, w: w}
}

// NewTicker implements Clock.
func (c *FakeClock) NewTicker(d time.Duration) *Ticker {
	if d <= 0 {
		panic("sim: non-positive ticker period")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.addWaiterLocked(d, d)
	return &Ticker{C: w.ch, fc: c, w: w}
}

func (c *FakeClock) addWaiterLocked(d, period time.Duration) *waiter {
	c.seq++
	w := &waiter{at: c.now.Add(d), ch: make(chan time.Time, 1), period: period, sequence: c.seq}
	if d <= 0 && period == 0 {
		w.ch <- c.now
		return w
	}
	c.waiters = append(c.waiters, w)
	c.signalLocked()
	return w
}

func (c *FakeClock) stopWaiter(w *waiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.stopped {
		return false
	}
	w.stopped = true
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// resetWaiter re-arms a one-shot waiter to fire d from now, reusing it:
// a firing not yet received is drained, and the waiter rejoins the set
// if it had fired or been stopped. It reports whether the waiter was
// pending.
func (c *FakeClock) resetWaiter(w *waiter, d time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	active := slices.Contains(c.waiters, w)
	select {
	case <-w.ch:
	default:
	}
	c.seq++
	w.at, w.sequence, w.stopped = c.now.Add(d), c.seq, false
	if d <= 0 {
		if active {
			c.removeLocked(w)
		}
		w.ch <- c.now
	} else if !active {
		c.waiters = append(c.waiters, w)
	}
	c.signalLocked()
	return active
}

func (c *FakeClock) signalLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// WaiterCount returns the number of goroutines currently blocked on this
// clock. Useful for quiescence detection in tests.
func (c *FakeClock) WaiterCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// Advance moves virtual time forward by d, firing every timer/sleep whose
// deadline is reached, in deadline order.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now.Add(d)
	c.advanceToLocked(target)
	c.mu.Unlock()
}

// AdvanceToNext advances virtual time to the earliest pending deadline and
// fires it. It reports whether any waiter was pending.
func (c *FakeClock) AdvanceToNext() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.earliestLocked()
	if w == nil {
		return false
	}
	c.advanceToLocked(w.at)
	return true
}

func (c *FakeClock) earliestLocked() *waiter {
	var best *waiter
	for _, w := range c.waiters {
		if best == nil || w.at.Before(best.at) ||
			(w.at.Equal(best.at) && w.sequence < best.sequence) {
			best = w
		}
	}
	return best
}

func (c *FakeClock) advanceToLocked(target time.Time) {
	for {
		w := c.earliestLocked()
		if w == nil || w.at.After(target) {
			break
		}
		c.now = w.at
		// Deliver without blocking: channels are buffered (cap 1); a
		// ticker whose consumer is slow just drops the tick like
		// time.Ticker does.
		select {
		case w.ch <- c.now:
		default:
		}
		if w.period > 0 {
			w.at = w.at.Add(w.period)
		} else {
			c.removeLocked(w)
		}
	}
	if c.now.Before(target) {
		c.now = target
	}
	c.signalLocked()
}

func (c *FakeClock) removeLocked(w *waiter) {
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// StartAutoAdvance launches a background advancer that repeatedly waits
// for the system to quiesce (no waiter-set changes for the given real-time
// settle window) and then advances the clock to the next pending deadline.
// This lets ordinary goroutine-based services run against virtual time
// without manual stepping. Call StopAutoAdvance to halt it.
func (c *FakeClock) StartAutoAdvance(settle time.Duration) {
	c.mu.Lock()
	if c.autoQuit != nil {
		c.mu.Unlock()
		return
	}
	quit := make(chan struct{})
	c.autoQuit = quit
	c.mu.Unlock()

	c.autoWG.Add(1)
	go func() {
		defer c.autoWG.Done()
		for {
			select {
			case <-quit:
				return
			default:
			}
			c.mu.Lock()
			wake := c.wake
			pending := len(c.waiters) > 0
			c.mu.Unlock()
			if !pending {
				select {
				case <-wake:
				case <-quit:
					return
				}
				continue
			}
			// Wait for a settle window with no waiter-set changes, then
			// step to the next deadline.
			select {
			case <-wake:
				continue // activity: re-settle
			case <-quit:
				return
			case <-time.After(settle):
				c.AdvanceToNext()
			}
		}
	}()
}

// StopAutoAdvance halts the background advancer started by
// StartAutoAdvance.
func (c *FakeClock) StopAutoAdvance() {
	c.mu.Lock()
	quit := c.autoQuit
	c.autoQuit = nil
	c.mu.Unlock()
	if quit != nil {
		close(quit)
		c.autoWG.Wait()
	}
}

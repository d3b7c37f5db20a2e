package sim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var origin = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)

func TestEngineOrdersEvents(t *testing.T) {
	e := NewEngine(origin)
	var got []int
	e.After(3*time.Second, func() { got = append(got, 3) })
	e.After(1*time.Second, func() { got = append(got, 1) })
	e.After(2*time.Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if e.Now() != origin.Add(3*time.Second) {
		t.Fatalf("clock = %v, want %v", e.Now(), origin.Add(3*time.Second))
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine(origin)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(origin)
	fired := false
	ev := e.After(time.Second, func() { fired = true })
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("Cancel returned true for already-cancelled event")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(origin)
	count := 0
	for i := 1; i <= 5; i++ {
		e.After(time.Duration(i)*time.Minute, func() { count++ })
	}
	e.RunUntil(origin.Add(3 * time.Minute))
	if count != 3 {
		t.Fatalf("executed %d events before deadline, want 3", count)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	if !e.Now().Equal(origin.Add(3 * time.Minute)) {
		t.Fatalf("clock = %v, want deadline", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(origin)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(time.Second, recurse)
		}
	}
	e.After(time.Second, recurse)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if got, want := e.Now(), origin.Add(100*time.Second); !got.Equal(want) {
		t.Fatalf("clock = %v, want %v", got, want)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(origin)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(origin.Add(-time.Second), func() {})
}

func TestFakeClockAdvance(t *testing.T) {
	c := NewFakeClock(origin)
	ch := c.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired before Advance")
	default:
	}
	c.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired early")
	default:
	}
	c.Advance(time.Second)
	select {
	case at := <-ch:
		if !at.Equal(origin.Add(10 * time.Second)) {
			t.Fatalf("fired at %v, want +10s", at)
		}
	default:
		t.Fatal("timer did not fire at deadline")
	}
}

func TestFakeClockSleepUnblocks(t *testing.T) {
	c := NewFakeClock(origin)
	done := make(chan struct{})
	go func() {
		c.Sleep(time.Minute)
		close(done)
	}()
	// Wait for the sleeper to register.
	for c.WaiterCount() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	c.Advance(time.Minute)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep did not unblock after Advance")
	}
}

func TestFakeClockTicker(t *testing.T) {
	c := NewFakeClock(origin)
	tk := c.NewTicker(time.Second)
	defer tk.Stop()
	ticks := 0
	done := make(chan struct{})
	go func() {
		for range tk.C {
			ticks++
			if ticks == 3 {
				close(done)
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		for c.WaiterCount() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		c.Advance(time.Second)
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("got %d ticks, want 3", ticks)
	}
}

func TestFakeClockTimerStop(t *testing.T) {
	c := NewFakeClock(origin)
	tm := c.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("Stop returned true twice")
	}
	c.Advance(2 * time.Second)
	select {
	case <-tm.C:
		t.Fatal("stopped timer fired")
	default:
	}
}

// TestFakeClockTimerReset: Reset re-arms one waiter in place — a fired,
// stopped or pending timer alike — drops a firing nobody received, and
// reports whether the timer was pending.
func TestFakeClockTimerReset(t *testing.T) {
	c := NewFakeClock(origin)
	tm := c.NewTimer(time.Second)
	if !tm.Reset(3 * time.Second) {
		t.Fatal("Reset of a pending timer reported it inactive")
	}
	if n := c.WaiterCount(); n != 1 {
		t.Fatalf("%d waiters after resetting a pending timer, want 1", n)
	}
	c.Advance(2 * time.Second)
	select {
	case <-tm.C:
		t.Fatal("timer fired at its old deadline")
	default:
	}
	c.Advance(time.Second)
	// Fired but not received: the reset drops the stale firing.
	if tm.Reset(time.Second) {
		t.Fatal("Reset of a fired timer reported it active")
	}
	select {
	case <-tm.C:
		t.Fatal("a firing from before Reset was received after it")
	default:
	}
	c.Advance(time.Second)
	select {
	case at := <-tm.C:
		if want := origin.Add(4 * time.Second); !at.Equal(want) {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("reset timer did not fire")
	}
	tm.Stop()
	tm.Reset(time.Second)
	if n := c.WaiterCount(); n != 1 {
		t.Fatalf("%d waiters after resetting a stopped timer, want 1", n)
	}
	tm.Stop()
	if n := c.WaiterCount(); n != 0 {
		t.Fatalf("%d waiters after Stop, want 0", n)
	}
}

var sinkTimer *Timer

// TestRealClockTimerAllocs pins a wall-clock timer's cost: the Timer
// holds the *time.Timer itself, not a Stop closure, and Reset reuses it.
// The timer is made through the Clock interface and outlives the call,
// as the platform's timers do.
func TestRealClockTimerAllocs(t *testing.T) {
	clk := Clock(NewRealClock())
	newAndStop := func() {
		sinkTimer = clk.NewTimer(time.Hour)
		sinkTimer.Stop()
	}
	if got := testing.AllocsPerRun(100, newAndStop); got > 4 {
		t.Fatalf("NewTimer+Stop = %.0f allocations, want <= 4", got)
	}
	tm := clk.NewTimer(time.Hour)
	if got := testing.AllocsPerRun(100, func() { tm.Reset(time.Hour); tm.Stop() }); got != 0 {
		t.Fatalf("Reset+Stop = %.0f allocations, want 0", got)
	}
}

func TestFakeClockAutoAdvance(t *testing.T) {
	c := NewFakeClock(origin)
	c.StartAutoAdvance(200 * time.Microsecond)
	defer c.StopAutoAdvance()

	var wg sync.WaitGroup
	const n = 8
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Sleep(time.Duration(i+1) * time.Hour)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("auto-advance did not drain sleepers")
	}
	if got := c.Since(origin); got < n*time.Hour {
		t.Fatalf("virtual elapsed = %v, want >= %v", got, n*time.Hour)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestRNGStreamsIndependentOfOrder(t *testing.T) {
	// Child stream draws must depend only on (seed, id), not on how many
	// sibling streams were created.
	s1 := NewRNG(7).Stream(3)
	parent := NewRNG(7)
	s2 := parent.Stream(3)
	if s1.Float64() != s2.Float64() {
		t.Fatal("stream(3) differs between identical parents")
	}
}

func TestWeightedChoiceRespectsWeights(t *testing.T) {
	g := NewRNG(1)
	counts := [3]int{}
	weights := []float64{1, 2, 7}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.WeightedChoice(weights)]++
	}
	// Expect roughly 10% / 20% / 70%.
	checks := []struct{ got, want float64 }{
		{float64(counts[0]) / n, 0.1},
		{float64(counts[1]) / n, 0.2},
		{float64(counts[2]) / n, 0.7},
	}
	for i, ck := range checks {
		if ck.got < ck.want-0.02 || ck.got > ck.want+0.02 {
			t.Fatalf("weight %d frequency = %.3f, want ~%.2f", i, ck.got, ck.want)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	g := NewRNG(2)
	for _, mean := range []float64{0.5, 4, 20, 200} {
		sum := 0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += g.Poisson(mean)
		}
		got := float64(sum) / n
		if got < mean*0.95 || got > mean*1.05 {
			t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Fatalf("median = %v, want 50", got)
	}
	if got := h.Quantile(1.0); got != 100 {
		t.Fatalf("p100 = %v, want 100", got)
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("max = %v, want 100", got)
	}
	if got := h.Mean(); got != 50.5 {
		t.Fatalf("mean = %v, want 50.5", got)
	}
}

func TestHistogramCDF(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 1, 2, 4} {
		h.Add(v)
	}
	vals, probs := h.CDF()
	wantVals := []float64{1, 2, 4}
	wantProbs := []float64{0.5, 0.75, 1.0}
	if len(vals) != len(wantVals) {
		t.Fatalf("CDF lengths = %d, want %d", len(vals), len(wantVals))
	}
	for i := range vals {
		if vals[i] != wantVals[i] || probs[i] != wantProbs[i] {
			t.Fatalf("CDF = (%v,%v), want (%v,%v)", vals, probs, wantVals, wantProbs)
		}
	}
}

// Property: engine clock is monotonic regardless of the mixture of
// scheduled delays.
func TestEngineClockMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(origin)
		last := e.Now()
		ok := true
		for _, d := range delays {
			e.After(time.Duration(d)*time.Millisecond, func() {
				if e.Now().Before(last) {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram quantile is monotone in q and bounded by min/max.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Add(float64(v))
		}
		prev := h.Quantile(0)
		for q := 0.1; q <= 1.0; q += 0.1 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return h.Quantile(1) == h.Max() || h.N() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

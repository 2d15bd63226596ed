package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock Now() = %v, want 0", c.Now())
	}
	if c.Step() {
		t.Fatal("new clock has an event to run")
	}
}

func TestAfterAdvancesTime(t *testing.T) {
	c := NewClock()
	fired := false
	c.After(5*time.Second, func() { fired = true })
	if fired {
		t.Fatal("event fired before Step")
	}
	if !c.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	if !fired {
		t.Fatal("event did not fire")
	}
	if c.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", c.Now())
	}
}

func TestEventsFireInDeadlineOrder(t *testing.T) {
	c := NewClock()
	var order []int
	c.After(3*time.Second, func() { order = append(order, 3) })
	c.After(1*time.Second, func() { order = append(order, 1) })
	c.After(2*time.Second, func() { order = append(order, 2) })
	c.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.After(time.Second, func() { order = append(order, i) })
	}
	c.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("order[%d] = %d, want %d", i, order[i], i)
		}
	}
}

func TestTimerStop(t *testing.T) {
	c := NewClock()
	fired := false
	tm := c.After(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	c.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopAfterFireReturnsFalse(t *testing.T) {
	c := NewClock()
	tm := c.After(time.Second, func() {})
	c.Run()
	if tm.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	c := NewClock()
	c.RunUntil(10 * time.Second)
	var at time.Duration
	c.After(-5*time.Second, func() { at = c.Now() })
	c.Run()
	if at != 10*time.Second {
		t.Fatalf("event fired at %v, want 10s", at)
	}
}

func TestRunUntilAdvancesEvenWithoutEvents(t *testing.T) {
	c := NewClock()
	c.RunUntil(time.Minute)
	if c.Now() != time.Minute {
		t.Fatalf("Now() = %v, want 1m", c.Now())
	}
}

func TestRunUntilDoesNotRunLaterEvents(t *testing.T) {
	c := NewClock()
	fired := false
	c.After(2*time.Minute, func() { fired = true })
	c.RunUntil(time.Minute)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if c.Now() != time.Minute {
		t.Fatalf("Now() = %v, want 1m", c.Now())
	}
	c.Run()
	if !fired || c.Now() != 2*time.Minute {
		t.Fatalf("after Run: fired=%v Now=%v", fired, c.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	c := NewClock()
	var times []time.Duration
	c.After(time.Second, func() {
		times = append(times, c.Now())
		c.After(time.Second, func() {
			times = append(times, c.Now())
		})
	})
	c.Run()
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("times = %v", times)
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	c := NewClock()
	var fires []time.Duration
	tk := c.Every(10*time.Second, func() {
		fires = append(fires, c.Now())
	})
	c.RunUntil(35 * time.Second)
	tk.Stop()
	c.Run()
	if len(fires) != 3 {
		t.Fatalf("got %d fires, want 3: %v", len(fires), fires)
	}
	for i, want := range []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second} {
		if fires[i] != want {
			t.Fatalf("fire %d at %v, want %v", i, fires[i], want)
		}
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	c := NewClock()
	n := 0
	var tk *Ticker
	tk = c.Every(time.Second, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	c.Run()
	if n != 2 {
		t.Fatalf("ticker fired %d times, want 2", n)
	}
}

func TestRunWhile(t *testing.T) {
	c := NewClock()
	n := 0
	c.Every(time.Second, func() { n++ })
	ok := c.RunWhile(func() bool { return n < 5 })
	if !ok {
		t.Fatal("RunWhile reported queue drained")
	}
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
}

func TestRunWhileDrainedQueue(t *testing.T) {
	c := NewClock()
	if c.RunWhile(func() bool { return true }) {
		t.Fatal("RunWhile reported condition met on empty queue")
	}
}

func TestAtClampsPast(t *testing.T) {
	c := NewClock()
	c.RunUntil(time.Hour)
	var at time.Duration
	c.At(time.Minute, func() { at = c.Now() })
	c.Run()
	if at != time.Hour {
		t.Fatalf("past At fired at %v, want 1h", at)
	}
}

func TestPropertyEventOrderMatchesSort(t *testing.T) {
	f := func(delays []uint16) bool {
		c := NewClock()
		var fired []time.Duration
		for _, d := range delays {
			c.After(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, c.Now())
			})
		}
		c.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds agreed on %d/100 draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(9)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[r.Intn(10)]++
	}
	for v, n := range counts {
		if n < 700 || n > 1300 {
			t.Fatalf("Intn(10) value %d drawn %d/10000 times, badly non-uniform", v, n)
		}
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(1234)
	const n = 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if mean < -0.03 || mean > 0.03 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGForkIndependent(t *testing.T) {
	parent := NewRNG(5)
	child := parent.Fork()
	a := child.Uint64()
	b := parent.Uint64()
	if a == b {
		t.Fatal("fork stream equals parent stream")
	}
}

package clock_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/vclock"
)

func TestDefaultStart(t *testing.T) {
	c := vclock.New(time.Time{})
	want := time.Date(2012, 3, 22, 17, 0, 0, 0, time.UTC)
	if !c.Now().Equal(want) {
		t.Fatalf("default start = %v, want %v", c.Now(), want)
	}
}

func TestExplicitStartAndAdvance(t *testing.T) {
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	c := clock.NewMock(start)
	if !c.Now().Equal(start) {
		t.Fatalf("start = %v", c.Now())
	}
	got := c.Advance(90 * time.Minute)
	if !got.Equal(start.Add(90 * time.Minute)) {
		t.Fatalf("after advance = %v", got)
	}
	if !c.Now().Equal(got) {
		t.Fatal("Now disagrees with Advance return")
	}
}

func TestConcurrentAdvance(t *testing.T) {
	c := clock.NewMock(time.Date(2012, 3, 22, 17, 0, 0, 0, time.UTC))
	start := c.Now()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Now().Sub(start); got != 8*time.Second {
		t.Fatalf("total advance = %v, want 8s", got)
	}
}

package main

import (
	"testing"
	"time"
)

func TestLatenessIdleGenerator(t *testing.T) {
	var l lateness
	t0 := time.Unix(0, 0)
	// Due at 100ms, sent at 130ms with nothing in flight: all 30ms are the
	// generator's own.
	l.sent(t0.Add(100*time.Millisecond), t0.Add(130*time.Millisecond))
	if l.max != 30*time.Millisecond || l.selfMax != 30*time.Millisecond {
		t.Fatalf("max %v self %v, want 30ms both", l.max, l.selfMax)
	}
	if l.fellBehind() {
		t.Fatal("30ms counted as falling behind")
	}
	l.sent(t0.Add(200*time.Millisecond), t0.Add(200*time.Millisecond+maxSelfLate+time.Millisecond))
	if !l.fellBehind() {
		t.Fatal("a generator late by more than the limit with nothing in flight is not marked invalid")
	}
}

func TestLatenessBlockedOnDaemon(t *testing.T) {
	var l lateness
	t0 := time.Unix(0, 0)
	// A request sent at 0 blocks until 900ms; the next request was due at
	// 100ms and goes out at 902ms. It is 802ms late, but only 2ms of that
	// is the generator's.
	l.sent(t0, t0)
	l.returned(t0.Add(900 * time.Millisecond))
	l.sent(t0.Add(100*time.Millisecond), t0.Add(902*time.Millisecond))
	if l.max != 802*time.Millisecond {
		t.Errorf("max = %v, want 802ms", l.max)
	}
	if l.selfMax != 2*time.Millisecond {
		t.Errorf("selfMax = %v, want 2ms", l.selfMax)
	}
	if l.fellBehind() || l.n != 2 {
		t.Errorf("fellBehind %v n %d", l.fellBehind(), l.n)
	}
	// An earlier return never moves busyEnd back.
	l.returned(t0.Add(500 * time.Millisecond))
	if !l.busyEnd.Equal(t0.Add(900 * time.Millisecond)) {
		t.Errorf("busyEnd moved back to %v", l.busyEnd)
	}
}

func TestLatenessEarlySendIsNotNegative(t *testing.T) {
	var l lateness
	t0 := time.Unix(0, 0)
	l.sent(t0.Add(time.Second), t0)
	if l.max != 0 || l.selfMax != 0 {
		t.Errorf("early send gave max %v self %v", l.max, l.selfMax)
	}
}

package live

import (
	"context"
	"time"
)

// Runner drives a Watcher from an externally owned tick channel: one
// Poll per tick, its outcome handed to OnPoll and its delta to OnDelta.
// The runner never constructs a clock — specserve feeds it a
// time.Ticker, tests feed it a plain channel — so poll cadence is
// entirely the caller's policy and the package stays free of time
// reads.
type Runner struct {
	// W is the watcher to poll. Run is the only goroutine touching it.
	W *Watcher
	// Ticks delivers poll triggers. Run exits when the channel closes.
	Ticks <-chan time.Time
	// OnDelta receives each non-empty delta, synchronously: the next
	// poll waits until the handler returns, so deltas are observed in
	// order and never concurrently.
	OnDelta func(Delta)
	// OnPoll receives every poll's outcome, before OnDelta: the tick
	// that triggered it and the poll error, nil on success (a nil
	// handler drops both). An error does not stop the runner — the
	// watcher keeps its previous state, so the next successful poll
	// reports the accumulated changes.
	OnPoll func(tick time.Time, err error)
}

// Run polls on each tick until the context is cancelled or the tick
// channel closes. It always returns nil on channel close and
// ctx.Err() on cancellation.
func (r *Runner) Run(ctx context.Context) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case tick, ok := <-r.Ticks:
			if !ok {
				return nil
			}
			d, err := r.W.Poll()
			if r.OnPoll != nil {
				r.OnPoll(tick, err)
			}
			if err != nil {
				continue
			}
			if !d.Empty() && r.OnDelta != nil {
				r.OnDelta(d)
			}
		}
	}
}

package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"lcakp/internal/engine"
	"lcakp/internal/obs"
)

// errCoalescerClosed marks queries arriving after shutdown.
var errCoalescerClosed = errors.New("gateway: coalescer closed")

// pendingQuery is one point query parked in the coalescer.
type pendingQuery struct {
	item int
	// epoch is the rider's resolved serving epoch. A batch frame names
	// exactly one (tenant, epoch), so the flush partitions riders by
	// this value — queries for epochs e and e+1 parked in the same
	// window must not share a frame.
	epoch engine.EpochID
	resp  chan pendingResult
	// span is the rider's active span (nil when untraced). The flush
	// runs under its own context, so the rider's span must travel with
	// the query for the coalesce_flush event to land on the right trace.
	span *obs.Span
}

// pendingResult is the answer delivered back to a parked query.
type pendingResult struct {
	answer bool
	err    error
}

// coalescer folds concurrent point queries into InSolutionBatch
// frames: the first query of a burst opens a window; everything
// arriving before it closes (or before the batch fills) rides the same
// RPC. A batch's answers are mutually consistent with certainty — the
// replica computes one rule for the whole frame — and the per-answer
// wire and rule-computation cost drops by the batch size.
type coalescer struct {
	window   time.Duration
	maxBatch int
	// flushTimeout bounds each flush RPC. Flushes run under their own
	// context: a batch aggregates queries from many callers, so no
	// single caller's context may cancel it for the others. A caller
	// whose context fires merely stops waiting for its answer.
	flushTimeout time.Duration
	call         func(context.Context, engine.EpochID, []int) ([]bool, error)
	counters     *counters

	queue chan pendingQuery

	// batchPool recycles pending-query slices between flushes. Flushes
	// run concurrently, so the buffer cannot live on the coalescer
	// itself; each flush returns its slice when done. Pooled batches
	// are zeroed before Put so parked resp channels are not pinned
	// past their flush. The item-index buffer is deliberately NOT
	// pooled: the router's hedged mode can return while a straggler
	// attempt goroutine is still marshaling the indices, so there is
	// no point at which the coalescer can prove the buffer is free.
	batchPool sync.Pool

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// newCoalescer starts the collection loop.
func newCoalescer(window time.Duration, maxBatch int, flushTimeout time.Duration,
	call func(context.Context, engine.EpochID, []int) ([]bool, error), c *counters) *coalescer {
	co := &coalescer{
		window:       window,
		maxBatch:     maxBatch,
		flushTimeout: flushTimeout,
		call:         call,
		counters:     c,
		queue:        make(chan pendingQuery),
		stop:         make(chan struct{}),
	}
	co.batchPool.New = func() any {
		s := make([]pendingQuery, 0, maxBatch)
		return &s
	}
	co.wg.Add(1)
	go co.run()
	return co
}

// query submits one point query pinned to epoch ep and waits for its
// batch to answer.
func (co *coalescer) query(ctx context.Context, ep engine.EpochID, i int) (bool, error) {
	// The response channel cannot be pooled: a waiter that abandons it
	// on ctx expiry leaves the flush's late send buffered, and a reused
	// channel would hand that stale answer to the next query.
	pq := pendingQuery{item: i, epoch: ep, resp: make(chan pendingResult, 1), span: obs.ActiveSpanFromContext(ctx)} //lint:alloc one buffered rendezvous per coalesced miss; see above

	select {
	case co.queue <- pq:
	case <-ctx.Done():
		return false, fmt.Errorf("gateway: coalesce enqueue: %w", ctx.Err())
	case <-co.stop:
		return false, errCoalescerClosed
	}
	select {
	case res := <-pq.resp:
		return res.answer, res.err
	case <-ctx.Done():
		// The batch still completes for its other riders; only this
		// caller stops waiting (its buffered resp is dropped unread).
		return false, fmt.Errorf("gateway: coalesce wait: %w", ctx.Err())
	}
}

// run is the collection loop: open a window on the first query of a
// burst, flush on window expiry or a full batch.
func (co *coalescer) run() {
	defer co.wg.Done()
	bp := co.batchPool.Get().(*[]pendingQuery)
	batch := (*bp)[:0]
	var timer *time.Timer
	var timerC <-chan time.Time
	//lint:alloc allocated once per coalescer lifetime, not per query
	flush := func() {
		if timer != nil {
			timer.Stop()
		}
		timerC = nil
		pending, pendingBuf := batch, bp
		bp = co.batchPool.Get().(*[]pendingQuery)
		batch = (*bp)[:0]
		co.wg.Add(1)
		//lint:alloc one goroutine per batch flush, amortized across the batch's riders
		go func() {
			defer co.wg.Done()
			co.flush(pending)
			co.releaseBatch(pendingBuf, pending)
		}()
	}
	for {
		select {
		case <-co.stop:
			if len(batch) > 0 {
				flush()
			}
			// batch is empty here (flush swapped in a fresh buffer);
			// return it so shutdown does not strand a pooled slice.
			*bp = batch[:0]
			co.batchPool.Put(bp)
			return
		case pq := <-co.queue:
			batch = append(batch, pq)
			if len(batch) == 1 {
				timer = time.NewTimer(co.window)
				timerC = timer.C
			}
			if len(batch) >= co.maxBatch {
				flush()
			}
		case <-timerC:
			flush()
		}
	}
}

// flush partitions the parked queries by epoch and issues one batch
// RPC per distinct epoch. A window usually holds one epoch (churn is
// rare relative to queries), so the common case is a single frame; a
// window straddling a rollover sends one frame per epoch rather than
// ever mixing two sealed instances in one request.
func (co *coalescer) flush(batch []pendingQuery) {
	if len(batch) > 1 {
		co.counters.coalesced.Add(int64(len(batch)))
	}
	rest := batch
	for len(rest) > 0 {
		// Gather the first un-flushed epoch's riders, preserving order.
		// group compacts in place (writes trail reads); next is given
		// zero capacity so a rollover-straddling window copies its
		// stragglers out instead of aliasing the pooled batch buffer.
		ep := rest[0].epoch
		group := rest[:0]
		next := rest[len(rest):len(rest):len(rest)]
		for _, pq := range rest {
			if pq.epoch == ep {
				group = append(group, pq)
			} else {
				next = append(next, pq) //lint:alloc rollover-straddling windows only; the common single-epoch window appends nothing
			}
		}
		co.flushEpoch(ep, group)
		rest = next
	}
}

// flushEpoch issues one epoch-homogeneous batch RPC and distributes
// the answers.
func (co *coalescer) flushEpoch(ep engine.EpochID, batch []pendingQuery) {
	// The index buffer must be freshly allocated, not pooled: co.call
	// routes through the router, whose hedged mode may return (on
	// ctx.Done or a first error) while an outstanding attempt goroutine
	// still reads the slice to marshal its request frame. Reusing the
	// buffer after co.call returns would race with that straggler.
	indices := make([]int, 0, len(batch)) //lint:alloc one exactly-sized index slice per batch RPC; hedged attempts may outlive the call, so it cannot be pooled
	for _, pq := range batch {
		indices = append(indices, pq.item)
	}
	ctx, cancel := context.WithTimeout(context.Background(), co.flushTimeout)
	defer cancel()
	answers, err := co.call(ctx, ep, indices)
	for k, pq := range batch {
		if pq.span != nil {
			// Stamp the rider's trace with the flush it rode: the batch
			// size explains the amortized wire cost (Def 2.2 splits one
			// RPC across len(batch) riders). Safe even if the rider's
			// span already ended — Event on an ended span is a no-op.
			//lint:alloc traced riders only: two attrs per coalesced miss, against a shared RPC
			pq.span.Event("gateway.coalesce_flush",
				obs.Int("batch", int64(len(batch))), obs.Int("item", int64(pq.item)))
		}
		res := pendingResult{err: err}
		if err == nil {
			res.answer = answers[k]
		}
		pq.resp <- res
	}
}

// releaseBatch zeroes a flushed batch — dropping the riders' resp
// channel references so the pool does not pin them — and returns its
// backing array for the next window.
func (co *coalescer) releaseBatch(bp *[]pendingQuery, used []pendingQuery) {
	for k := range used {
		used[k] = pendingQuery{}
	}
	*bp = used[:0]
	co.batchPool.Put(bp)
}

// close stops the loop after flushing any parked queries and waits for
// in-flight flushes.
func (co *coalescer) close() {
	co.stopOnce.Do(func() { close(co.stop) })
	co.wg.Wait()
}

package gateway

import (
	"sync"
	"time"
)

// tokenBucket is a per-tenant admission rate limiter: rate tokens per
// second refill up to burst, and each admitted query spends one token.
// Quotas are charged at admission — before the cache — because the
// resource being protected is the tenant's query budget in the sense
// of Definition 2.2 (how much of the fleet's oracle-access capacity a
// tenant may consume), not the marginal cost of one lookup.
type tokenBucket struct {
	rate  float64 // tokens per second
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// newTokenBucket builds a bucket starting full. burst <= 0 selects a
// one-second burst (rate tokens, minimum 1).
func newTokenBucket(rate float64, burst int) *tokenBucket {
	b := float64(burst)
	if b <= 0 {
		b = rate
		if b < 1 {
			b = 1
		}
	}
	return &tokenBucket{rate: rate, burst: b, tokens: b, last: time.Now()}
}

// take spends n tokens if the bucket holds them, reporting whether the
// caller is admitted. All-or-nothing: a batch either fits entirely or
// is rejected entirely (partial admission would answer some indices
// and reject others within one consistent batch, which helps nobody).
func (b *tokenBucket) take(n int) bool { return b.takeAt(time.Now(), n) }

// takeAt is take at the instant now, refilling for the time since the
// previous take.
func (b *tokenBucket) takeAt(now time.Time, n int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens < float64(n) {
		return false
	}
	b.tokens -= float64(n)
	return true
}

package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lcakp/internal/engine"
	"lcakp/internal/knapsack"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
)

// DefaultTimeout bounds each RPC round trip.
const DefaultTimeout = 10 * time.Second

// ErrConnBroken marks a connection that suffered a transport or
// framing failure mid-RPC. The request/response protocol is strictly
// alternating, so after a partial write or a half-read frame the
// stream position is unknowable; every subsequent call on the same
// connection fails fast with this error instead of desyncing. Callers
// (the gateway pool above all) test with errors.Is and re-dial.
var ErrConnBroken = errors.New("cluster: connection broken")

// conn is a mutex-serialized framed connection with per-RPC deadlines.
type conn struct {
	mu      sync.Mutex
	netConn net.Conn
	timeout time.Duration
	// brokenErr records the first transport failure; once set, all
	// later round trips fail fast with ErrConnBroken wrapping it.
	brokenErr error
	// wbuf and rd are the frame buffer and reader reused across RPCs
	// under mu, so a steady-state round trip allocates nothing for
	// framing. A response frame's payload aliases rd's buffer, so it is
	// read only under mu (see roundTrip).
	wbuf []byte
	rd   frameReader
}

// dial connects to addr with the given per-RPC timeout (0 selects
// DefaultTimeout). ctx bounds the dial itself in addition to the
// timeout (constructors pass context.Background for the old
// fixed-timeout behavior).
//
//lint:coldpath connection establishment, amortized over the connection's RPC lifetime
func dial(ctx context.Context, addr string, timeout time.Duration) (*conn, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	dialer := net.Dialer{Timeout: timeout}
	netConn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	return &conn{netConn: netConn, timeout: timeout, rd: frameReader{r: netConn}}, nil
}

// roundTrip sends one request, reads its response, and hands the
// response to decode (when non-nil) while the connection is still
// locked. The response payload aliases the connection's read buffer,
// which the next RPC overwrites, so decode must copy out whatever it
// keeps: the buffer's lifetime is the lock's. An error frame, or a
// response of another type than the request's, fails with ErrRemote or
// ErrBadMessage before decode runs. The RPC is bounded by the earlier
// of the connection's per-RPC timeout and the context's deadline, and a
// context that is canceled mid-RPC interrupts the write or the read at
// once; either surfaces as a wrapped ctx.Err(). Any transport error
// poisons the connection (see ErrConnBroken).
func (c *conn) roundTrip(ctx context.Context, req frame, decode func(resp frame) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cluster: round trip aborted: %w", err)
	}
	if sc, ok := obs.SpanFromContext(ctx); ok {
		// Carry the caller's trace across the hop so the server-side
		// span joins the same trace.
		req.trace = sc
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.brokenErr != nil {
		return fmt.Errorf("%w: %v", ErrConnBroken, c.brokenErr)
	}
	deadline, ctxDeadline := time.Now().Add(c.timeout), false
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline, ctxDeadline = d, true
	}
	if err := c.netConn.SetDeadline(deadline); err != nil {
		c.brokenErr = err
		return fmt.Errorf("cluster: set deadline: %w", err)
	}
	if ctx.Done() != nil {
		// Only a context that can end arms the interrupt, so RPCs on
		// context.Background pay nothing for it.
		defer c.interruptOnDone(ctx)()
	}
	wbuf, err := appendFrame(c.wbuf[:0], req)
	c.wbuf = wbuf
	if err == nil {
		_, err = c.netConn.Write(wbuf)
	}
	if err != nil {
		c.brokenErr = err
		return c.rpcErr(ctx, "write request", err, ctxDeadline)
	}
	resp, err := c.rd.next()
	if err != nil {
		// A failed or partial response read leaves the stream position
		// unknown even when the write succeeded.
		c.brokenErr = err
		return c.rpcErr(ctx, "read response", err, ctxDeadline)
	}
	if err := decodeMaybeErr(resp, req.msgType); err != nil || decode == nil {
		return err
	}
	return decode(resp)
}

// interruptOnDone makes ctx ending expire the connection's deadline,
// which fails a blocked write or read at once instead of when the
// deadline set for the RPC passes. The returned stop disarms it and,
// if it already fired, waits for it, so its deadline cannot land on
// the next RPC (which sets its own deadline before writing). c.mu must
// be held until stop returns.
//
//lint:coldpath armed only for contexts that can end; the RPC it guards is a wire round trip
func (c *conn) interruptOnDone(ctx context.Context) (stop func()) {
	fired := make(chan struct{})
	disarm := context.AfterFunc(ctx, func() {
		_ = c.netConn.SetDeadline(time.Unix(1, 0))
		close(fired)
	})
	return func() {
		if !disarm() {
			<-fired
		}
	}
}

// broken reports whether the connection has been poisoned by a
// transport failure.
func (c *conn) broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.brokenErr != nil
}

// rpcErr attributes an I/O failure to the context when its deadline
// (or cancellation) caused it, so callers can errors.Is against
// context.DeadlineExceeded / context.Canceled instead of parsing
// net timeouts. ctxDeadline says the socket's deadline was the
// context's: a socket timeout then is the context's deadline, even
// when the socket's timer fired before the context's did.
func (c *conn) rpcErr(ctx context.Context, op string, err error, ctxDeadline bool) error {
	ctxErr := ctx.Err()
	if ctxErr == nil && ctxDeadline && errors.Is(err, os.ErrDeadlineExceeded) {
		ctxErr = context.DeadlineExceeded
	}
	if ctxErr != nil {
		return fmt.Errorf("cluster: %s: %w (%v)", op, ctxErr, err)
	}
	return fmt.Errorf("cluster: %s: %w", op, err)
}

// close closes the underlying connection.
func (c *conn) close() error { return c.netConn.Close() }

// RemoteAccess is an oracle.Access backed by a remote InstanceServer.
// It lets an unmodified core.LCAKP run against an instance held
// elsewhere — the "massive input" deployment of the LCA model.
// Instance info (n, capacity) is fetched once at dial time. A caller
// stream's draws are laid out in batches of batch draws, batch b drawn
// by the server from seed ^ b·φ. A frame call requests at most one
// batch at a time and opens a batch with only the draws it still
// needs; fetch says how a later call resumes such a batch.
//
// A call that finds the instance connection broken dials a new one
// first (see live), so one failed RPC, a request deadline among the
// causes, costs that call and no later one.
type RemoteAccess struct {
	addr    string
	timeout time.Duration
	// conn is the instance connection. live swaps a new one in under
	// redial; QueryItem reads it without r.mu, so it is an atomic
	// pointer. closed, under redial, stops redials after Close.
	conn   atomic.Pointer[conn]
	redial sync.Mutex
	closed bool

	n        int
	capacity float64

	// batch is the stream's layout unit and the largest sample
	// request.
	batch int

	mu sync.Mutex
	// streams tracks one sampling stream per caller source. Sources
	// are per-run ephemerals, so the map is cleared when it grows past
	// a small bound rather than tracking lifetimes.
	streams map[*rng.Source]*sampleStream
	// lastSrc and last cache the most recently used stream, so a run's
	// consecutive draws skip the map. The cached source is always in
	// streams: a reset only happens when a new source is added, and
	// that source becomes the cached one.
	lastSrc *rng.Source
	last    *sampleStream
}

// sampleStream is the sampling state of one caller stream: where it
// stands in its batches, and the response entries no call has
// consumed yet, kept raw. A call that leaves part of a fresh response
// unconsumed copies that tail into buf, whose backing array every
// later batch reuses.
type sampleStream struct {
	seed     uint64 // stream identity drawn once from the caller source
	batchNum uint64 // next batch ordinal; batches use independent seeds
	// short is how many leading draws of batch batchNum-1 were
	// fetched when it was opened with fewer than a whole batch; 0 when
	// no batch is open short.
	short int
	buf   []byte // backing array of tail
	tail  sampleFrame
}

// maxStreams bounds the per-source stream map.
const maxStreams = 128

var _ oracle.Access = (*RemoteAccess)(nil)

// DialInstance connects to an InstanceServer. batch is the number of
// draws in each batch of a sampling stream (0 selects 4096): the unit
// the per-draw sequence is laid out in and the largest sample request.
// It is not a prefetch: a frame call opens a batch with only the draws
// it needs. The dial is bounded by timeout alone; use
// DialInstanceContext to also bound it by a context.
func DialInstance(addr string, timeout time.Duration, batch int) (*RemoteAccess, error) {
	return DialInstanceContext(context.Background(), addr, timeout, batch)
}

// DialInstanceContext is DialInstance bounded by ctx: both the TCP
// connect and the dial-time info fetch abort when ctx fires, so a
// caller managing many backends (the gateway pool pattern) can cap
// total connection-establishment time.
func DialInstanceContext(ctx context.Context, addr string, timeout time.Duration, batch int) (*RemoteAccess, error) {
	if batch <= 0 {
		batch = 4096
	}
	if batch > maxSampleBatch {
		return nil, fmt.Errorf("%w: sample batch %d (max %d)", ErrBadMessage, batch, maxSampleBatch)
	}
	c, err := dial(ctx, addr, timeout)
	if err != nil {
		return nil, err
	}
	var n uint64
	var capacity float64
	err = c.roundTrip(ctx, frame{msgType: msgInfo}, func(resp frame) (err error) {
		if n, err = getU64(resp.payload, 0); err != nil {
			return err
		}
		capacity, err = getF64(resp.payload, 8)
		return err
	})
	if err != nil {
		_ = c.close()
		return nil, err
	}
	r := &RemoteAccess{
		addr:     addr,
		timeout:  timeout,
		n:        int(n),
		capacity: capacity,
		batch:    batch,
		streams:  make(map[*rng.Source]*sampleStream),
	}
	r.conn.Store(c)
	return r, nil
}

// live returns the instance connection, replacing it first with a new
// one when it is broken. A redial keeps every draw where it was: each
// batch has its own seed and a failed fetch abandons its batch, so the
// stream's next fetch asks for the next batch on whatever connection
// carries it. A failed dial is returned, and the next call dials again.
func (r *RemoteAccess) live(ctx context.Context) (*conn, error) {
	c := r.conn.Load()
	if !c.broken() {
		return c, nil
	}
	r.redial.Lock()
	defer r.redial.Unlock()
	if r.closed {
		return nil, fmt.Errorf("cluster: instance connection: %w", net.ErrClosed)
	}
	if cur := r.conn.Load(); cur != c {
		return cur, nil // another call redialed first
	}
	nc, err := dial(ctx, r.addr, r.timeout)
	if err != nil {
		return nil, err
	}
	r.conn.Store(nc)
	_ = c.close()
	return nc, nil
}

// N returns the remote instance's item count.
func (r *RemoteAccess) N() int { return r.n }

// Capacity returns the remote instance's weight limit.
func (r *RemoteAccess) Capacity() float64 { return r.capacity }

// QueryItem fetches one item's profit and weight. It is safe to call
// while another goroutine's SampleFrame is fetching on the same
// connection: each decodes its own response under the connection's
// lock.
func (r *RemoteAccess) QueryItem(ctx context.Context, i int) (knapsack.Item, error) {
	c, err := r.live(ctx)
	if err != nil {
		return knapsack.Item{}, err
	}
	var it knapsack.Item
	//lint:alloc stays on the stack: roundTrip only calls decode and never retains it, so the closure does not escape (go build -gcflags=-m)
	err = c.roundTrip(ctx, frame{msgType: msgQuery, payload: putU64(nil, uint64(i))}, func(resp frame) (err error) {
		if it.Profit, err = getF64(resp.payload, 0); err != nil {
			return err
		}
		it.Weight, err = getF64(resp.payload, 8)
		return err
	})
	if err != nil {
		return knapsack.Item{}, err
	}
	return it, nil
}

// Sample draws one profit-weighted item (see SampleFrame).
func (r *RemoteAccess) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	d, err := oracle.SampleOne(ctx, r, src)
	return d.Index, d.Item, err
}

// SampleFrame fills dst with profit-weighted draws. The caller's
// source is compressed into a stream seed (drawn once per source) sent
// to the server, which draws the actual samples. Distinct sources get
// statistically independent streams, preserving the fresh-per-run
// discipline. A call fetches only the draws it needs, at most one
// batch per request (see fetch), so frames of whole batches plus one
// final short frame per stream cost exactly their draws. Entries are
// decoded straight from the stream's tail and from fresh response
// payloads into dst, one index check per entry.
func (r *RemoteAccess) SampleFrame(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	stream := r.last
	if src != r.lastSrc {
		stream = r.stream(src)
	}
	filled := 0
	for filled < len(dst) {
		var k int
		var err error
		if len(stream.tail) == 0 {
			k, err = r.fetch(ctx, stream, dst[filled:])
		} else {
			// Keep what this call does not consume, the entry that
			// failed its check included.
			k, err = stream.tail.decode(dst[filled:], r.n)
			stream.tail = stream.tail[k*sampleEntryLen:]
		}
		filled += k
		if err != nil {
			return filled, err
		}
	}
	return filled, nil
}

// stream returns src's stream, creating it on first use, and makes it
// the cached one. r.mu must be held.
func (r *RemoteAccess) stream(src *rng.Source) *sampleStream {
	stream, ok := r.streams[src]
	if !ok {
		if len(r.streams) >= maxStreams {
			// Sources are per-run ephemerals; reset wholesale instead
			// of tracking lifetimes.
			r.streams = make(map[*rng.Source]*sampleStream) //lint:alloc stream-table reset at the maxStreams bound, amortized over the table's lifetime
		}
		stream = &sampleStream{seed: src.Uint64()} //lint:alloc one stream record per caller source, not per sample
		r.streams[src] = stream
	}
	r.lastSrc, r.last = src, stream
	return stream
}

// fetch requests the stream's next draws, decodes them into dst and
// returns how many it filled. It opens the next batch with len(dst)
// draws when that is less than a whole batch: a request's draws are a
// prefix of its batch's per-draw sequence. The stream's next fetch
// resumes a batch opened short by fetching it whole and skipping the
// prefix already delivered. The response's entries past dst, the one
// that failed its check included, are copied into the stream's tail
// before the connection's read buffer is released. A failed request
// abandons its batch. r.mu must be held.
func (r *RemoteAccess) fetch(ctx context.Context, stream *sampleStream, dst []oracle.Draw) (filled int, err error) {
	b, count, skip := stream.batchNum, min(len(dst), r.batch), 0
	if stream.short > 0 {
		b, count, skip = b-1, r.batch, stream.short
		stream.short = 0
	} else {
		stream.batchNum++
	}
	// Each batch gets an independent server-side seed derived from the
	// stream identity and batch ordinal.
	var payload [16]byte
	binary.LittleEndian.PutUint64(payload[0:8], uint64(count))
	binary.LittleEndian.PutUint64(payload[8:16], stream.seed^(b*0x9e3779b97f4a7c15))
	c, err := r.live(ctx)
	if err != nil {
		return 0, err
	}
	//lint:alloc stays on the stack: roundTrip only calls decode and never retains it, so the closure does not escape (go build -gcflags=-m)
	err = c.roundTrip(ctx, frame{msgType: msgSample, payload: payload[:]}, func(resp frame) error {
		f, err := decodeSampleFrame(resp.payload, count)
		if err != nil {
			return err
		}
		if count < r.batch {
			stream.short = count
		}
		f = f[skip*sampleEntryLen:]
		filled, err = f.decode(dst, r.n)
		stream.buf = append(stream.buf[:0], f[filled*sampleEntryLen:]...) //lint:alloc grows the stream's tail buffer to at most one batch, then reuses it for every later batch
		stream.tail = sampleFrame(stream.buf)
		return err
	})
	return filled, err
}

// Close releases the connection; later calls fail without redialing.
func (r *RemoteAccess) Close() error {
	r.redial.Lock()
	defer r.redial.Unlock()
	r.closed = true
	return r.conn.Load().close()
}

// LCAClient queries a remote LCA replica (or anything speaking the
// membership protocol — a gateway, a multi-tenant server).
//
// Every membership frame names an epoch: calls that take none send
// engine.EpochCurrent and are served at the server's current epoch;
// the *Epoch variants pin one and report the epoch served. A client is
// untenanted by default — its frames address the server's default
// tenant. SetTenant/SetAPIKey install connection-level defaults
// applied to every subsequent frame; the *Tenant call variants
// override the namespace per call — the shape a gateway needs, where
// one pooled connection carries many tenants' queries.
type LCAClient struct {
	conn *conn
	addr string

	// defaults guards the connection-level tenant and API key; they
	// are read on every call and settable at any time.
	defaults sync.Mutex
	tenant   *engine.TenantID
	apiKey   []byte
}

// DialLCA connects to a membership server (a replica or a gateway).
// The dial is bounded by timeout alone; use DialLCAContext to also
// bound it by a context.
func DialLCA(addr string, timeout time.Duration) (*LCAClient, error) {
	return DialLCAContext(context.Background(), addr, timeout)
}

// DialLCAContext is DialLCA with the TCP connect additionally bounded
// by ctx.
//
//lint:coldpath connection establishment, amortized over the connection's RPC lifetime
func DialLCAContext(ctx context.Context, addr string, timeout time.Duration) (*LCAClient, error) {
	c, err := dial(ctx, addr, timeout)
	if err != nil {
		return nil, err
	}
	return &LCAClient{conn: c, addr: addr}, nil
}

// Addr returns the replica address this client talks to.
func (c *LCAClient) Addr() string { return c.addr }

// SetTenant namespaces every subsequent frame to id. Use it when the
// process serves exactly one tenant end to end; gateways multiplexing
// tenants over pooled connections use the per-call *Tenant variants
// instead.
func (c *LCAClient) SetTenant(id engine.TenantID) {
	c.defaults.Lock()
	defer c.defaults.Unlock()
	c.tenant = &id
}

// SetAPIKey attaches key to every subsequent frame; an empty key
// detaches. Keys longer than 255 bytes fail at send time.
func (c *LCAClient) SetAPIKey(key string) {
	c.defaults.Lock()
	defer c.defaults.Unlock()
	if key == "" {
		c.apiKey = nil
		return
	}
	c.apiKey = []byte(key)
}

// request builds a frame at epoch ep carrying the connection defaults,
// with id (when non-nil) overriding the default tenant.
func (c *LCAClient) request(msgType uint8, payload []byte, id *engine.TenantID, ep engine.EpochID) frame {
	f := frame{msgType: msgType, payload: payload, epoch: ep}
	c.defaults.Lock()
	if id == nil {
		id = c.tenant
	}
	if id != nil {
		f.tenant = *id
		f.hasTenant = true
	}
	f.authKey = c.apiKey
	c.defaults.Unlock()
	return f
}

// Broken reports whether the client's connection has been poisoned by
// a transport failure; a broken client answers every call with
// ErrConnBroken and must be replaced by re-dialing. Connection pools
// use this to discard dead connections on check-in.
func (c *LCAClient) Broken() bool { return c.conn.broken() }

// InSolution asks the replica whether item i is in the solution at the
// current epoch. ctx bounds the round trip; pair it with the server's
// request timeout for end-to-end deadlines.
func (c *LCAClient) InSolution(ctx context.Context, i int) (bool, error) {
	in, _, err := c.inSolution(ctx, i, nil, engine.EpochCurrent)
	return in, err
}

// InSolutionEpoch asks whether item i is in the solution of epoch ep
// (engine.EpochCurrent: the current one) and reports the epoch served.
// A concrete pin is echoed verbatim — the server serves exactly that
// version or errors — and EpochCurrent learns which epoch it resolved
// to: the key the caller needs to cache, compare, or re-pin answers
// under.
func (c *LCAClient) InSolutionEpoch(ctx context.Context, ep engine.EpochID, i int) (bool, engine.EpochID, error) {
	return c.inSolution(ctx, i, nil, ep)
}

// InSolutionEpochTenant is InSolutionEpoch addressed to tenant id,
// overriding any connection-level default for this call.
func (c *LCAClient) InSolutionEpochTenant(ctx context.Context, id engine.TenantID, ep engine.EpochID, i int) (bool, engine.EpochID, error) {
	return c.inSolution(ctx, i, &id, ep)
}

func (c *LCAClient) inSolution(ctx context.Context, i int, id *engine.TenantID, ep engine.EpochID) (bool, engine.EpochID, error) {
	var in bool
	var served engine.EpochID
	//lint:alloc stays on the stack: roundTrip only calls decode and never retains it, so the closure does not escape (go build -gcflags=-m)
	err := c.conn.roundTrip(ctx, c.request(msgInSol, putU64(nil, uint64(i)), id, ep), func(resp frame) error {
		if len(resp.payload) != 1 {
			return fmt.Errorf("%w: InSolution payload %d bytes", ErrBadMessage, len(resp.payload))
		}
		in, served = resp.payload[0] == 1, resp.epoch
		return nil
	})
	if err != nil {
		return false, 0, err
	}
	return in, served, nil
}

// InSolutionBatch asks the replica about several items in one RPC and
// one replica-side pipeline run, at the current epoch: answers within
// a batch are mutually consistent with certainty (they share one rule
// computation and one epoch), and the per-answer amortized cost drops
// by the batch size.
func (c *LCAClient) InSolutionBatch(ctx context.Context, indices []int) ([]bool, error) {
	answers, _, err := c.inSolutionBatch(ctx, indices, nil, engine.EpochCurrent)
	return answers, err
}

// InSolutionBatchEpoch is InSolutionBatch against epoch ep of the
// connection's default tenant, reporting the epoch served.
func (c *LCAClient) InSolutionBatchEpoch(ctx context.Context, ep engine.EpochID, indices []int) ([]bool, engine.EpochID, error) {
	return c.inSolutionBatch(ctx, indices, nil, ep)
}

// InSolutionBatchEpochTenant is the gateway's fan-out RPC: one pooled
// connection serves every (tenant, epoch), with each frame naming its
// full consistency key.
func (c *LCAClient) InSolutionBatchEpochTenant(ctx context.Context, id engine.TenantID, ep engine.EpochID, indices []int) ([]bool, engine.EpochID, error) {
	return c.inSolutionBatch(ctx, indices, &id, ep)
}

func (c *LCAClient) inSolutionBatch(ctx context.Context, indices []int, id *engine.TenantID, ep engine.EpochID) ([]bool, engine.EpochID, error) {
	if len(indices) == 0 {
		return nil, ep, nil
	}
	payload := make([]byte, 0, 8*len(indices)) //lint:alloc one exactly-sized request payload per batch RPC against a wire round trip
	for _, i := range indices {
		payload = putU64(payload, uint64(i))
	}
	answers := make([]bool, len(indices)) //lint:alloc escapes to the caller, which owns the answers
	var served engine.EpochID
	//lint:alloc stays on the stack: roundTrip only calls decode and never retains it, so the closure does not escape (go build -gcflags=-m)
	err := c.conn.roundTrip(ctx, c.request(msgInSolBatch, payload, id, ep), func(resp frame) error {
		if len(resp.payload) != len(indices) {
			return fmt.Errorf("%w: batch response %d answers for %d queries",
				ErrBadMessage, len(resp.payload), len(indices))
		}
		for k, b := range resp.payload {
			answers[k] = b == 1
		}
		served = resp.epoch
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return answers, served, nil
}

// Ping performs a health-check round trip.
func (c *LCAClient) Ping(ctx context.Context) error {
	return c.conn.roundTrip(ctx, frame{msgType: msgPing}, nil)
}

// FetchArtifact retrieves the complete materialized artifact of tenant
// id at epoch ep (internal/store encoding) from a peer that serves
// MsgStoreFetch — the transfer half of gateway peer-fill: (tenant,
// epoch) is the content address. The frame carries key as its API key
// (nil for none) in place of any SetAPIKey default: one peer
// connection carries the fetches of every tenant, and the serving
// peer checks the key against the tenant like any read. The returned
// bytes are a fresh copy owned by the caller, who must validate them
// through store.Decode (the trailer checksum catches any corruption
// the transport missed) before serving or persisting them. Peers
// without that artifact (or without artifact serving at all), and
// peers refusing the key, answer with ErrRemote.
//
//lint:coldpath artifact fetches run once per (peer, tenant, epoch) residency, not per query
func (c *LCAClient) FetchArtifact(ctx context.Context, id engine.TenantID, ep engine.EpochID, key []byte) ([]byte, error) {
	f := c.request(msgStoreFetch, nil, &id, ep)
	f.authKey = key
	var data []byte
	err := c.conn.roundTrip(ctx, f, func(resp frame) error {
		data = append([]byte(nil), resp.payload...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// ScrapeMetrics fetches the server's Prometheus-text metrics snapshot
// over the query connection — the same wire a client already holds, so
// a fleet can be scraped without exposing a separate HTTP port per
// replica. Servers without a registry attached answer with ErrRemote.
// Note the process-wide scrape is deliberately untenanted even when a
// default tenant is set: it reads the whole server, not one namespace.
func (c *LCAClient) ScrapeMetrics(ctx context.Context) (string, error) {
	c.defaults.Lock()
	f := frame{msgType: msgMetrics, authKey: c.apiKey}
	c.defaults.Unlock()
	return c.scrapeMetrics(ctx, f)
}

// ScrapeTenantMetrics fetches the metrics snapshot of one resident
// tenant from a multi-tenant server. Non-resident tenants answer with
// an ErrRemote wrapping "unknown tenant".
func (c *LCAClient) ScrapeTenantMetrics(ctx context.Context, id engine.TenantID) (string, error) {
	return c.scrapeMetrics(ctx, c.request(msgMetrics, nil, &id, 0))
}

func (c *LCAClient) scrapeMetrics(ctx context.Context, f frame) (string, error) {
	var text string
	err := c.conn.roundTrip(ctx, f, func(resp frame) error {
		text = string(resp.payload)
		return nil
	})
	return text, err
}

// Close releases the connection.
func (c *LCAClient) Close() error { return c.conn.close() }

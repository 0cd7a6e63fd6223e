package cluster

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lcakp/internal/engine"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
)

// handler processes one request frame into a response frame. ctx is
// the per-request context (carrying the server's request timeout, if
// one is configured); handlers must abort and encode the error when it
// fires rather than hang the connection. sc is the connection's
// reusable scratch memory; the returned frame's payload may alias it.
type handler interface {
	handle(ctx context.Context, f frame, sc *connScratch) frame
}

// connScratch is one serving connection's reusable working memory:
// handlers decode batch requests and build response payloads into it
// instead of allocating per frame. The serving loop writes a response
// to the wire before the next request touches the scratch again, so
// aliasing it from a returned frame is safe.
type connScratch struct {
	// out backs response payloads.
	out []byte
	// indices backs decoded batch query indices.
	indices []int
	// draws backs one chunk of a sample frame between its draw and its
	// encoding.
	draws []oracle.Draw
	// header backs a response's frame header, and iov and vec the
	// writev of that header and the response's payload.
	header []byte
	iov    [2][]byte
	vec    net.Buffers
}

// writeFrame writes f to conn with one writev of its header, built in
// sc.header, and its payload, which reaches the wire without a copy.
// It is the serving loop's one write path.
func (sc *connScratch) writeFrame(conn net.Conn, f frame) error {
	header, err := appendFrameHeader(sc.header[:0], f)
	sc.header = header
	if err != nil {
		return err
	}
	sc.iov = [2][]byte{header, f.payload}
	sc.vec = sc.iov[:]
	_, err = sc.vec.WriteTo(conn)
	return err
}

// Stats are a server's monotonic operational counters, readable at
// any time via Server.Stats.
type Stats struct {
	// ConnsAccepted counts accepted TCP connections.
	ConnsAccepted int64
	// RequestsServed counts request frames processed.
	RequestsServed int64
	// ErrorsReturned counts error responses sent to peers.
	ErrorsReturned int64
}

// statCounters is the atomic backing for Stats.
type statCounters struct {
	conns    atomic.Int64
	requests atomic.Int64
	errors   atomic.Int64
}

// snapshot reads the counters into a Stats value.
func (c *statCounters) snapshot() Stats {
	return Stats{
		ConnsAccepted:  c.conns.Load(),
		RequestsServed: c.requests.Load(),
		ErrorsReturned: c.errors.Load(),
	}
}

// server is the shared TCP serving loop: accept connections, process
// frames sequentially per connection, shut down cleanly. Both server
// roles embed it.
type server struct {
	listener net.Listener
	handler  handler
	stats    statCounters
	logger   *slog.Logger

	// reqTimeout bounds each request's context (0 = unbounded);
	// stored atomically so it can be set while serving.
	reqTimeout atomic.Int64

	// registry, when set, is served to peers over MsgMetrics frames —
	// the wire-scrape path that lets clients and gateways read a
	// replica's metrics through the same connection they query.
	registry atomic.Pointer[obs.Registry]

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// SetRequestTimeout bounds every subsequent request with a
// context.WithTimeout of d (0 disables the bound). A request that
// exceeds it is answered with an error response carrying the deadline
// error instead of hanging the connection.
func (s *server) SetRequestTimeout(d time.Duration) {
	s.reqTimeout.Store(int64(d))
}

// SetLogger installs a structured logger for connection lifecycle and
// error events (nil disables logging, the default). Call before
// traffic arrives; the logger itself must be safe for concurrent use
// (slog loggers are).
func (s *server) SetLogger(logger *slog.Logger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logger = logger
}

// log emits one event if a logger is installed.
//
//lint:coldpath lifecycle and error logging, not the per-request steady state
func (s *server) log(msg string, args ...any) {
	s.mu.Lock()
	logger := s.logger
	s.mu.Unlock()
	if logger != nil {
		logger.Info(msg, args...)
	}
}

// Stats returns a snapshot of the server's operational counters.
func (s *server) Stats() Stats { return s.stats.snapshot() }

// SetRegistry serves reg to peers over MsgMetrics frames (nil disables
// wire scraping, the default) and registers the server's own
// operational counters on it. A server without a registry answers
// MsgMetrics with an error response.
func (s *server) SetRegistry(reg *obs.Registry) {
	s.registry.Store(reg)
	if reg == nil {
		return
	}
	// Registration errors (duplicate names from a repeated SetRegistry)
	// are ignored: the first registration already exposes the counters.
	_ = reg.Register("lcakp_server_conns_accepted_total", "TCP connections accepted",
		obs.CounterFunc(func() int64 { return s.stats.conns.Load() }))
	_ = reg.Register("lcakp_server_requests_total", "request frames processed",
		obs.CounterFunc(func() int64 { return s.stats.requests.Load() }))
	_ = reg.Register("lcakp_server_request_errors_total", "error responses sent to peers",
		obs.CounterFunc(func() int64 { return s.stats.errors.Load() }))
}

// metricsResponse renders the registry for one MsgMetrics request.
//
//lint:coldpath metrics scrape path, priced by the scrape interval rather than the query rate
func (s *server) metricsResponse() frame {
	reg := s.registry.Load()
	if reg == nil {
		return encodeErr(fmt.Errorf("%w: metrics not enabled on this server", ErrBadMessage))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return encodeErr(fmt.Errorf("cluster: render metrics: %w", err))
	}
	if buf.Len() > MaxFrameSize {
		return encodeErr(fmt.Errorf("%w: metrics exposition of %d bytes", ErrFrameTooLarge, buf.Len()))
	}
	return frame{msgType: msgMetrics | respBit, payload: buf.Bytes()}
}

// newServer starts listening on addr (use "127.0.0.1:0" for an
// ephemeral test port) and begins serving in background goroutines.
func newServer(addr string, h handler) (*server, error) {
	listener, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	s := &server{
		listener: listener,
		handler:  h,
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *server) Addr() string { return s.listener.Addr().String() }

// acceptLoop accepts connections until the listener closes.
func (s *server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			_ = conn.Close()
			return
		}
		s.stats.conns.Add(1)
		s.log("conn accepted", "remote", conn.RemoteAddr().String())
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// track registers a connection; it reports false after Close.
func (s *server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

// untrack removes a connection.
func (s *server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

// requestContext builds the per-request context: deadline-bounded when
// a request timeout is configured, and carrying the request frame's
// trace context when present — the handoff that lets a replica-side
// span join the trace the gateway (or client) minted.
func (s *server) requestContext(req frame) (context.Context, context.CancelFunc) {
	ctx := context.Background()
	if req.trace.Valid() {
		ctx = obs.ContextWithSpan(ctx, req.trace)
	}
	if d := time.Duration(s.reqTimeout.Load()); d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// tenantScraper is implemented by handlers that can render a
// tenant-scoped metrics exposition for a tenanted MsgMetrics frame.
type tenantScraper interface {
	scrapeTenant(id engine.TenantID) frame
}

// serveConn processes frames from one connection until EOF or error.
// Frame I/O reuses per-connection buffers (a frameReader and
// connScratch.writeFrame), and handlers build payloads into the
// connection's scratch: a steady-state request allocates nothing for
// framing.
func (s *server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()
	rd := frameReader{r: conn}
	var sc connScratch
	for {
		req, err := rd.next()
		if err != nil {
			return // EOF or broken pipe: the client is gone
		}
		var resp frame
		if req.msgType == msgMetrics {
			// Metrics scrapes are answered by the serving loop itself:
			// every server role exposes the same scrape surface without
			// each handler re-implementing it. A tenanted scrape asks for
			// one tenant's engine accounting instead of the process-wide
			// registry.
			if req.hasTenant {
				if ts, ok := s.handler.(tenantScraper); ok {
					resp = ts.scrapeTenant(req.tenant)
				} else {
					//lint:alloc tenant-scrape rejection on the metrics path, priced by the scrape interval
					resp = encodeErr(fmt.Errorf("%w: %s: tenant-scoped metrics not supported here", ErrUnknownTenant, req.tenant))
				}
			} else {
				resp = s.metricsResponse()
			}
		} else {
			ctx, cancel := s.requestContext(req)
			resp = s.handler.handle(ctx, req, &sc)
			cancel()
		}
		s.stats.requests.Add(1)
		if resp.msgType == msgErr|respBit {
			s.stats.errors.Add(1)
			s.logRequestError(req, resp)
		}
		if err := sc.writeFrame(conn, resp); err != nil {
			return
		}
	}
}

// logRequestError records one error response sent to a peer.
//
//lint:coldpath runs once per failed request, off the steady-state serving path
func (s *server) logRequestError(req, resp frame) {
	s.log("request error", "type", req.msgType, "error", string(resp.payload))
}

// Close stops accepting, closes all live connections, and waits for
// the serving goroutines to exit. It is idempotent.
func (s *server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.listener.Close()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// InstanceServer hosts a Knapsack instance and serves oracle access
// (point queries, weighted samples, instance info) to remote LCA
// replicas.
type InstanceServer struct {
	*server
}

// instanceHandler implements the instance-side RPCs.
type instanceHandler struct {
	access oracle.Access
}

// NewInstanceServer starts an instance server on addr.
func NewInstanceServer(addr string, access oracle.Access) (*InstanceServer, error) {
	h := &instanceHandler{access: access}
	srv, err := newServer(addr, h)
	if err != nil {
		return nil, err
	}
	return &InstanceServer{server: srv}, nil
}

// handle dispatches one instance-access request.
func (h *instanceHandler) handle(ctx context.Context, req frame, sc *connScratch) frame {
	switch req.msgType {
	case msgPing:
		return frame{msgType: msgPing | respBit}

	case msgInfo:
		payload := putU64(sc.out[:0], uint64(h.access.N()))
		payload = putF64(payload, h.access.Capacity())
		sc.out = payload
		return frame{msgType: msgInfo | respBit, payload: payload}

	case msgQuery:
		idx, err := getU64(req.payload, 0)
		if err != nil {
			return encodeErr(err)
		}
		item, err := h.access.QueryItem(ctx, int(idx))
		if err != nil {
			return encodeErr(err)
		}
		payload := putF64(sc.out[:0], item.Profit)
		payload = putF64(payload, item.Weight)
		sc.out = payload
		return frame{msgType: msgQuery | respBit, payload: payload}

	case msgSample:
		count, err := getU64(req.payload, 0)
		if err != nil {
			return encodeErr(err)
		}
		seed, err := getU64(req.payload, 8)
		if err != nil {
			return encodeErr(err)
		}
		if count == 0 || count > maxSampleBatch {
			return encodeErr(fmt.Errorf("%w: sample batch %d (max %d)", ErrBadMessage, count, maxSampleBatch))
		}
		// The client supplies the sampling seed: samples must be fresh
		// per run but deterministic for a given client run, so the
		// randomness belongs to the caller, not the instance host.
		payload, err := h.drawSamples(ctx, rng.New(seed), int(count), sc)
		if err != nil {
			return encodeErr(err)
		}
		return frame{msgType: msgSample | respBit, payload: payload}

	default:
		return encodeErr(fmt.Errorf("%w: unknown request type %#x", ErrBadMessage, req.msgType))
	}
}

// sampleChunk is how many draws the instance server takes from its
// access per frame call, between context checks.
const sampleChunk = 4096

// drawSamples encodes count draws from src into sc.out, filling the
// response sampleChunk draws at a time. The payload is sized once, and
// draw k's entry is written at offset k·sampleEntryLen.
func (h *instanceHandler) drawSamples(ctx context.Context, src *rng.Source, count int, sc *connScratch) ([]byte, error) {
	if cap(sc.draws) < sampleChunk {
		sc.draws = make([]oracle.Draw, sampleChunk) //lint:alloc grows the connection's reused draw buffer once; amortized to zero across its sample RPCs
	}
	if size := count * sampleEntryLen; cap(sc.out) < size {
		sc.out = make([]byte, size) //lint:alloc grows the connection's reused payload buffer to its largest sample frame; amortized to zero across its sample RPCs
	}
	payload := sc.out[:count*sampleEntryLen]
	for done := 0; done < count; {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sample batch aborted at %d/%d: %w", done, count, err)
		}
		draws := sc.draws[:min(count-done, sampleChunk)]
		if _, err := h.access.SampleFrame(ctx, src, draws); err != nil {
			return nil, err
		}
		for k, d := range draws {
			putSample(payload[(done+k)*sampleEntryLen:], d.Index, d.Item)
		}
		done += len(draws)
	}
	return payload, nil
}

// Backend answers solution-membership queries on behalf of a
// membership server. It is the serving seam of the wire protocol: a
// replica plugs in an engine per (tenant, epoch), and a gateway plugs
// in its pooled/cached fan-out — clients cannot tell the two apart,
// which is exactly the consistency guarantee (Definition 2.2) made
// operational.
type Backend interface {
	// InSolution reports whether item i is in the answered solution.
	InSolution(ctx context.Context, i int) (bool, error)
	// InSolutionBatch answers several indices; the returned slice has
	// one answer per index, in order.
	InSolutionBatch(ctx context.Context, indices []int) ([]bool, error)
}

// TenantQuery is the key and credential one request frame carried:
// which solution C(I_e, r) it addresses — the tenant (or none, meaning
// the server's default tenant) and the epoch — and the caller's API
// key, if any.
type TenantQuery struct {
	// ID is the addressed tenant; meaningful only when Tenanted.
	ID engine.TenantID
	// Tenanted reports whether the frame named a tenant at all.
	// Untenanted frames address the server's default tenant.
	Tenanted bool
	// Key is the API key the frame carried (nil when none).
	Key []byte
	// Epoch is the instance version the frame addressed: a concrete
	// epoch, or engine.EpochCurrent for whatever epoch is current (the
	// server echoes the resolved epoch back).
	Epoch engine.EpochID
}

// TenantBackend resolves a frame's tenant to the Backend answering it
// at the tenant's current epoch, enforcing admission (auth, quotas) on
// the way. The membership server resolves every frame through
// EpochBackend; TenantBackend is the current-epoch shorthand a
// resolver may offer in-process callers.
type TenantBackend interface {
	Resolve(ctx context.Context, q TenantQuery) (Backend, error)
}

// EpochBackend is the membership server's one resolution seam: it
// resolves a frame's full (tenant, epoch) key to the Backend answering
// exactly that solution and reports which epoch it is — the resolved
// value of an engine.EpochCurrent request, echoed back on the wire so
// the client learns the version its answers belong to. Admission
// (auth, quotas) may be enforced here: ResolveEpoch runs once per
// request frame, before any query work.
type EpochBackend interface {
	ResolveEpoch(ctx context.Context, q TenantQuery) (Backend, engine.EpochID, error)
}

// plainBackend mounts a Backend that has one solution and no notion of
// tenants or epochs: untenanted frames at epoch 0 or
// engine.EpochCurrent reach it, and tenanted frames and pins on any
// later epoch are refused, never answered from the wrong solution.
type plainBackend struct {
	backend Backend
}

func (p plainBackend) ResolveEpoch(_ context.Context, q TenantQuery) (Backend, engine.EpochID, error) {
	if q.Tenanted {
		return nil, 0, fmt.Errorf("%w: %s: this server hosts one untenanted backend", ErrUnknownTenant, q.ID)
	}
	if q.Epoch != 0 && q.Epoch != engine.EpochCurrent {
		return nil, 0, fmt.Errorf("%w: epoch %d pinned, but this server serves epoch 0 only", ErrBadMessage, uint64(q.Epoch))
	}
	return p.backend, 0, nil
}

// engineBackend adapts an engine.Engine to the Backend seam by
// dropping the per-query Metrics record (the engine keeps the totals).
type engineBackend struct {
	engine *engine.Engine
}

// InSolution answers one membership query through the engine.
func (b engineBackend) InSolution(ctx context.Context, i int) (bool, error) {
	in, _, err := b.engine.Query(ctx, i)
	return in, err
}

// InSolutionBatch answers a batch through the engine.
func (b engineBackend) InSolutionBatch(ctx context.Context, indices []int) ([]bool, error) {
	answers, _, err := b.engine.QueryBatch(ctx, indices)
	return answers, err
}

// QueryServer serves the membership wire protocol over an arbitrary
// Backend. It is how non-replica processes (the gateway) present
// themselves to unmodified LCAClients.
type QueryServer struct {
	*server
}

// NewQueryServer starts a membership server on addr answering from
// backend. A backend that also implements EpochBackend (the gateway
// does) resolves every frame's (tenant, epoch) itself; any other
// backend serves untenanted frames at epoch 0 only.
func NewQueryServer(addr string, backend Backend) (*QueryServer, error) {
	eb, ok := backend.(EpochBackend)
	if !ok {
		eb = plainBackend{backend: backend}
	}
	srv, err := newServer(addr, &backendHandler{backends: eb})
	if err != nil {
		return nil, err
	}
	return &QueryServer{server: srv}, nil
}

// maxQueryBatch bounds one batched membership RPC.
const maxQueryBatch = 1 << 16

// backendHandler implements the membership RPCs: each request frame's
// (tenant, epoch) resolves to a Backend, which then answers.
type backendHandler struct {
	backends EpochBackend
}

// TenantMetricsProvider is implemented by backends that can render one
// tenant's accounting as a Prometheus-text exposition — the hook that
// lets a gateway mounted on a QueryServer answer tenant-scoped wire
// scrapes (LCAClient.ScrapeTenantMetrics) just like a multi-tenant
// replica does.
type TenantMetricsProvider interface {
	TenantExposition(id engine.TenantID) (string, error)
}

// scrapeTenant renders a tenant-scoped metrics exposition when the
// resolver supports it.
func (h *backendHandler) scrapeTenant(id engine.TenantID) frame {
	if ts, ok := h.backends.(tenantScraper); ok {
		return ts.scrapeTenant(id)
	}
	if tp, ok := h.backends.(TenantMetricsProvider); ok {
		text, err := tp.TenantExposition(id)
		if err != nil {
			return encodeErr(err)
		}
		return frame{msgType: msgMetrics | respBit, payload: []byte(text)}
	}
	return encodeErr(fmt.Errorf("%w: %s: tenant-scoped metrics not supported here", ErrUnknownTenant, id))
}

// ArtifactProvider is implemented by backends that can serve a
// materialized artifact (internal/store encoding) over MsgStoreFetch
// frames — the peer-fill seam: a gateway holding the artifact of one
// (tenant, epoch) ships it whole to a peer, which verifies the trailer
// checksum and backfills its own store. Purity makes this safe: the
// artifact for (I_e, r) has exactly one possible value, so a fetched
// copy is indistinguishable from a locally materialized one.
type ArtifactProvider interface {
	// ArtifactBytes returns the canonical encoded artifact of tenant id
	// at epoch ep, or an error when none is held (callers fall back to
	// ordinary replica queries).
	ArtifactBytes(ctx context.Context, id engine.TenantID, ep engine.EpochID) ([]byte, error)
}

// handleStoreFetch answers one MsgStoreFetch frame whose (tenant,
// epoch) handle has already resolved through ResolveEpoch, so the
// artifact, which holds every answer of the tenant at once, is read
// under the same keys and grants as a batch of those answers, and at
// the epoch the resolution served. A fetch is not charged to a quota:
// quotas meter query work, which spends replica oracle access, and a
// transfer of stored bytes spends none.
//
//lint:coldpath artifact fetches run once per (peer, tenant) residency, not per query
func (h *backendHandler) handleStoreFetch(ctx context.Context, req frame, served engine.EpochID) frame {
	ap, ok := h.backends.(ArtifactProvider)
	if !ok {
		return encodeErr(fmt.Errorf("%w: artifact serving not supported here", ErrBadMessage))
	}
	if !req.hasTenant {
		return encodeErr(fmt.Errorf("%w: store fetch requires a tenant header", ErrBadMessage))
	}
	data, err := ap.ArtifactBytes(ctx, req.tenant, served)
	if err != nil {
		return encodeErr(err)
	}
	if len(data) > MaxFrameSize {
		return encodeErr(fmt.Errorf("%w: artifact of %d bytes", ErrFrameTooLarge, len(data)))
	}
	return frame{msgType: msgStoreFetch | respBit, payload: data}
}

// handle dispatches membership queries (single or batched) and
// artifact fetches. Every type but ping resolves the frame's (tenant,
// epoch) through ResolveEpoch first, so keys and grants apply to each
// read alike.
func (h *backendHandler) handle(ctx context.Context, req frame, sc *connScratch) frame {
	// Pings answer before tenant resolution: they probe transport
	// liveness (pools, health loops), not any one tenant's state, and
	// must keep working for credential-less health checkers.
	if req.msgType == msgPing {
		return frame{msgType: msgPing | respBit}
	}
	backend, served, err := h.backends.ResolveEpoch(ctx, TenantQuery{
		ID:       req.tenant,
		Tenanted: req.hasTenant,
		Key:      req.authKey,
		Epoch:    req.epoch,
	})
	if err != nil {
		return encodeErr(err)
	}

	switch req.msgType {
	case msgStoreFetch:
		return h.handleStoreFetch(ctx, req, served)

	case msgInSol:
		idx, err := getU64(req.payload, 0)
		if err != nil {
			return encodeErr(err)
		}
		in, err := backend.InSolution(ctx, int(idx))
		if err != nil {
			return encodeErr(err)
		}
		var b byte
		if in {
			b = 1
		}
		sc.out = append(sc.out[:0], b)
		return frame{msgType: msgInSol | respBit, payload: sc.out, epoch: served}

	case msgInSolBatch:
		if len(req.payload)%8 != 0 {
			return encodeErr(fmt.Errorf("%w: batch payload %d bytes", ErrBadMessage, len(req.payload)))
		}
		count := len(req.payload) / 8
		if count == 0 || count > maxQueryBatch {
			return encodeErr(fmt.Errorf("%w: batch of %d queries", ErrBadMessage, count))
		}
		indices := sc.indices[:0]
		for k := 0; k < count; k++ {
			idx, err := getU64(req.payload, 8*k)
			if err != nil {
				return encodeErr(err)
			}
			indices = append(indices, int(idx))
		}
		sc.indices = indices
		answers, err := backend.InSolutionBatch(ctx, indices)
		if err != nil {
			return encodeErr(err)
		}
		if len(answers) != count {
			return encodeErr(fmt.Errorf("%w: backend returned %d answers for %d queries", ErrBadMessage, len(answers), count))
		}
		payload := sc.out[:0]
		for _, in := range answers {
			var b byte
			if in {
				b = 1
			}
			payload = append(payload, b)
		}
		sc.out = payload
		return frame{msgType: msgInSolBatch | respBit, payload: payload, epoch: served}

	default:
		return encodeErr(fmt.Errorf("%w: unknown request type %#x", ErrBadMessage, req.msgType))
	}
}

// MultiLCAServer hosts LCA replicas — one engine per (tenant, epoch) —
// behind a single address. Tenanted frames route to their tenant's
// engine through the table (deriving it on first use); untenanted
// frames route to the configured default tenant.
type MultiLCAServer struct {
	*server
	table    *engine.TenantTable
	resolver *multiTenantResolver
}

// multiTenantResolver routes tenant queries through a TenantTable.
type multiTenantResolver struct {
	table *engine.TenantTable
	def   atomic.Pointer[engine.TenantID]
}

// ResolveEpoch routes a query to one sealed version of the tenant's
// state. The table resolves engine.EpochCurrent to the tenant's latest
// sealed epoch; the concrete epoch served is returned for the wire
// echo.
func (r *multiTenantResolver) ResolveEpoch(ctx context.Context, q TenantQuery) (Backend, engine.EpochID, error) {
	id := q.ID
	if !q.Tenanted {
		d := r.def.Load()
		if d == nil {
			return nil, 0, fmt.Errorf("%w: untenanted frame and no default tenant configured", ErrUnknownTenant)
		}
		id = *d
	}
	eng, served, err := r.table.GetEpoch(ctx, id, q.Epoch)
	if err != nil {
		return nil, 0, err
	}
	return engineBackend{engine: eng}, served, nil
}

// scrapeTenant renders one resident tenant's engine accounting as a
// Prometheus-text exposition (the scrape is already tenant-scoped, so
// the metric names stay unlabeled).
func (r *multiTenantResolver) scrapeTenant(id engine.TenantID) frame {
	eng, ok := r.table.Peek(id)
	if !ok {
		return encodeErr(fmt.Errorf("%w: %s: not resident", ErrUnknownTenant, id))
	}
	reg := obs.NewRegistry()
	if err := eng.RegisterMetrics(reg, "lcakp_engine"); err != nil {
		return encodeErr(fmt.Errorf("cluster: render tenant metrics: %w", err))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return encodeErr(fmt.Errorf("cluster: render tenant metrics: %w", err))
	}
	return frame{msgType: msgMetrics | respBit, payload: buf.Bytes()}
}

// NewMultiLCAServer starts a multi-tenant replica server on addr over
// table. The table owns tenant lifecycles (lazy derivation, residency
// budget); the server owns the wire. Closing the server does not close
// the table — several servers may share one.
func NewMultiLCAServer(addr string, table *engine.TenantTable) (*MultiLCAServer, error) {
	res := &multiTenantResolver{table: table}
	srv, err := newServer(addr, &backendHandler{backends: res})
	if err != nil {
		return nil, err
	}
	return &MultiLCAServer{server: srv, table: table, resolver: res}, nil
}

// NewLCAServer starts a replica on addr serving one engine as tenant
// id: a MultiLCAServer over a one-tenant table whose only entry is
// (id, epoch 0), with id as the default tenant so untenanted frames
// reach it too. Frames naming any other tenant fail with
// ErrUnknownTenant, and pins on a later epoch fail — the engine has no
// other version to serve. Build eng with engine.New over a core.LCAKP
// whose access carries the engine.Instrument middleware (engine.Wrap)
// for access counts to appear in its metrics.
func NewLCAServer(addr string, id engine.TenantID, eng *engine.Engine) (*MultiLCAServer, error) {
	table := engine.NewVersionedTenantTable(func(_ context.Context, vt engine.VersionedTenant) (engine.TenantState, error) {
		if vt.Tenant != id {
			return engine.TenantState{}, fmt.Errorf("%w: %s: this replica serves %s only", ErrUnknownTenant, vt.Tenant, id)
		}
		if vt.Epoch != 0 {
			return engine.TenantState{}, fmt.Errorf("cluster: tenant %s: epoch %d requested, but this replica serves epoch 0 only", id, uint64(vt.Epoch))
		}
		return engine.TenantState{Engine: eng}, nil
	}, 1)
	srv, err := NewMultiLCAServer(addr, table)
	if err != nil {
		return nil, err
	}
	srv.SetDefaultTenant(id)
	return srv, nil
}

// SetDefaultTenant routes untenanted frames to id. Without one,
// untenanted frames are rejected with ErrUnknownTenant.
func (s *MultiLCAServer) SetDefaultTenant(id engine.TenantID) { s.resolver.def.Store(&id) }

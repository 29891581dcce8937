package core

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/flowctl"
	"repro/internal/core/ft"
	"repro/internal/serial"
	"repro/internal/transport"
)

// Config tunes an application's runtime behaviour.
type Config struct {
	// Window bounds the number of tokens in circulation per split–merge
	// pair (the paper's flow-control feedback): each split group gets a
	// flowctl.Gate of this many slots. Zero selects DefaultWindow.
	Window int
	// ForceSerialize marshals and unmarshals tokens even for same-node
	// transfers, exercising the full networking path inside one process —
	// the paper's several-kernels-per-host debugging mode.
	ForceSerialize bool
	// Checkpoint enables the fault-tolerance layer (internal/core/ft) and
	// sets the interval at which thread instances checkpoint their state:
	// tokens are sequenced and retained for replay, receivers filter
	// duplicates, and a node declared dead (FailNode, transport send
	// errors, kernel heartbeats) has its threads restored from their
	// newest checkpoints on the surviving nodes with exactly-once execution
	// semantics. Zero disables the layer entirely; the token hot paths and
	// wire formats are then untouched.
	Checkpoint time.Duration
	// MaxInFlightCalls is the admission budget: the number of graph calls
	// that may be pending (registered and unsettled) at any moment across
	// the application. At the budget new calls are shed at admission with
	// ErrOverload before any entry token posts — graceful degradation
	// instead of unbounded queueing. It transitively bounds the engine's
	// queues too: each admitted call contributes at most its flow-control
	// window of tokens. Zero admits everything.
	MaxInFlightCalls int
	// TraceSample enables per-token distributed tracing: each admitted call
	// is sampled with this probability (0..1), and a sampled call's
	// envelopes carry its trace ID — the call ID — across splits, merges,
	// migrations and failover replays, while every runtime
	// they touch records spans into its ring buffer (App.TraceSpans).
	// Unsampled calls pay one comparison per span point and nothing else,
	// and the wire stays byte-identical: only a sampled envelope's frame
	// carries flagTraced and the trace context (wire.go). Zero disables
	// tracing entirely.
	TraceSample float64
	// Registry is the token type registry; nil selects serial.DefaultRegistry.
	Registry *serial.Registry
}

// DefaultWindow is the default per-split flow-control window.
const DefaultWindow = flowctl.DefaultWindow

func (c Config) registry() *serial.Registry {
	if c.Registry != nil {
		return c.Registry
	}
	return serial.DefaultRegistry
}

// App is a DPS application: a set of node runtimes plus the thread
// collections and flow graphs defined on them. In the paper each node runs
// an instance of the application process; here an App owns one Runtime per
// cluster node, attached to a shared transport fabric (in-process,
// simulated network, or TCP).
type App struct {
	cfg Config
	reg *serial.Registry

	// runtimes is read without a lock (cowTable) and written under mu, which
	// guards the fields below it.
	runtimes    cowTable[string, *Runtime]
	mu          sync.Mutex
	nodeOrder   []string
	collections map[string]*ThreadCollection
	graphs      map[string]*Flowgraph

	// ids resolves every id the wire carries (idTable): republished, under
	// mu, as each graph, node and collection is declared, and read without a
	// lock. idHook, set only by tests, replaces ft.NameID as the id a name is
	// declared under.
	ids    cowTable[uint64, declared]
	idHook func(kind byte, name string) uint64

	callSeq atomic.Uint64
	// callreg is the sharded pending-call table (callreg.go): registration,
	// completion, cancellation and context lookups lock only the shard the
	// call ID stripes to, so concurrent callers don't convoy on one mutex.
	callreg callRegistry
	// canceled holds the IDs of calls whose context fired before the result
	// arrived (sync.Map: written once per cancellation, read lock-free on
	// the token hot paths). In-flight tokens of these calls are dropped —
	// with their flow-control accounting released — wherever the engine
	// next touches them. An ID is reaped when the graph still produces the
	// orphaned result; a call whose tokens were all dropped before reaching
	// the exit retains its 8-byte ID for the application's lifetime, the
	// price of not tracking per-call in-flight counts.
	canceled sync.Map
	// cancelActive counts outstanding canceled IDs: while zero — the
	// overwhelmingly common case — the hot paths skip the map entirely.
	cancelActive atomic.Int64
	// cancelHook, set only by tests, runs inside cancelCall's critical
	// section, after the call left the pending table and before its
	// cancellation record exists.
	cancelHook func()
	// handDownHook, set only by tests, sees every buffer array a completed
	// merge group hands down to its thread instance (completeGroup), with the
	// group's call ID.
	handDownHook func(callID uint64, buf []bufferedToken)

	failErr atomic.Value // errBox
	closed  atomic.Bool

	// migrateMu serializes rehomes (migrate.go): live remaps and failovers.
	// migrActive switches the token posting paths from the lock-free fast
	// route onto the per-key route locks once the first rehome starts
	// (sticky; the in-flight fast-path counts live on each Runtime).
	// rehomeHook, set only by tests, runs after a rehome has shipped its
	// states and before it awaits their installs.
	migrateMu  sync.Mutex
	migrActive atomic.Int32
	rehomeHook func()

	// Fault-tolerance layer (Config.Checkpoint; see ftengine.go). ftOn is
	// immutable after NewApp; the goroutines start lazily via ftOnce.
	ftOn       bool
	ftDead     ft.Detector
	ftOnce     sync.Once
	ftStop     chan struct{}
	ftSuspects chan string
	ftReported sync.Map // node -> struct{}: reported dead (see died)
	ftCkptSeq  atomic.Uint64

	cleanup []func()
}

// CallResult is the outcome of one flow-graph invocation.
type CallResult struct {
	Value Token
	Err   error
}

// callEntry is one pending flow-graph invocation: the channel the result is
// delivered on, the caller's context (consulted by blocking engine points so
// cancellation unwinds in-flight work), the origin runtime (where admission
// and expiry are attributed in Stats) and, for an async call only, the
// context.AfterFunc watcher to detach once the call settles — a synchronous
// caller watches its context itself while it waits (awaitCall), so its stop
// stays nil. Entries of synchronous calls are pooled; see callEntries in
// callreg.go for the ownership argument.
type callEntry struct {
	ch   chan CallResult
	ctx  context.Context
	stop func() bool
	rt   *Runtime
	// start is the admission clock (unix ns) backing the call-latency
	// histogram; sampled marks the call for distributed tracing
	// (Config.TraceSample), stamping its envelopes with the call ID.
	start   int64
	sampled bool
}

// NewApp creates an application with no nodes; attach transports with
// AttachTransport or use the NewLocalApp / NewAppOn conveniences.
func NewApp(cfg Config) *App {
	app := &App{
		cfg:         cfg,
		reg:         cfg.registry(),
		collections: make(map[string]*ThreadCollection),
		graphs:      make(map[string]*Flowgraph),
		ftOn:        cfg.Checkpoint > 0,
	}
	app.callreg.initCallRegistry(DefaultCallShards)
	// Call IDs travel in token envelopes and are consulted on every
	// receiving node (cancellation drops). In a multi-process deployment
	// (TCP kernels) each process runs its own App; sequential IDs starting
	// at 1 would collide across processes and a canceled local call could
	// shadow a healthy remote one. A random starting point makes the ID
	// namespace effectively unique per App instance.
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		app.callSeq.Store(binary.LittleEndian.Uint64(seed[:]))
	}
	return app
}

// NewLocalApp creates an application whose nodes communicate through an
// in-process fabric with no modelled cost (the paper's single-host mode).
func NewLocalApp(cfg Config, nodeNames ...string) (*App, error) {
	app := NewApp(cfg)
	fabric := transport.NewInproc()
	for _, name := range nodeNames {
		n, err := fabric.Node(name)
		if err != nil {
			return nil, err
		}
		if _, err := app.AttachTransport(n); err != nil {
			return nil, err
		}
	}
	app.cleanup = append(app.cleanup, fabric.Close)
	return app, nil
}

// NewAppOn creates an application and attaches each transport in order as
// one of its nodes (the first is the master node). A simulated cluster's
// endpoints come from transport.SimNodes.
func NewAppOn(cfg Config, trs ...transport.Transport) (*App, error) {
	app := NewApp(cfg)
	for _, tr := range trs {
		if _, err := app.AttachTransport(tr); err != nil {
			app.Close()
			return nil, err
		}
	}
	return app, nil
}

// AttachTransport adds a cluster node to the application. The transport's
// Local() name becomes the node name used in mapping strings.
func (app *App) AttachTransport(tr transport.Transport) (*Runtime, error) {
	app.mu.Lock()
	defer app.mu.Unlock()
	name := tr.Local()
	if app.hasNode(name) {
		return nil, fmt.Errorf("dps: node %q already attached", name)
	}
	rt := newRuntime(app, tr, len(app.nodeOrder), app.nameID(idNode, name))
	if err := app.declareLocked(rt.id, name, declared{rt: rt}); err != nil {
		return nil, err
	}
	app.runtimes.set(name, rt)
	app.nodeOrder = append(app.nodeOrder, name)
	if r, ok := tr.(transport.Releaser); ok {
		// The transport says when a sent buffer has no reader left: it comes
		// back to the pool it was drawn from (pool.go).
		r.SetRelease(putWireBuf)
	}
	if b, ok := tr.(transport.Borrower); ok {
		// The transport builds a frame of its own around what it sends: it
		// draws that frame from the pool too, and releases it once written.
		b.SetBorrow(func(n int) []byte { return getWireBuf(&rt.stats, n) })
	}
	tr.SetHandler(rt.lnk.handle)
	return rt, nil
}

// Kind bytes of the ids (ft.NameID) names are declared under, so a graph, a
// node and a collection of one name have distinct ids.
const (
	idGraph byte = 'g'
	idNode  byte = 'n'
	idColl  byte = 'i'
)

// idTable resolves the ids the wire carries in place of names: every graph,
// node and collection the application declared, under its id. Kernels that
// declare the same names derive the same ids, with no agreement needed.
type idTable = map[uint64]declared

// declared is what one id names; exactly one field is set.
type declared struct {
	g  *Flowgraph
	rt *Runtime
	tc *ThreadCollection
}

// nameID returns the id a name of kind is declared under.
func (app *App) nameID(kind byte, name string) uint64 {
	if app.idHook != nil {
		return app.idHook(kind, name)
	}
	return ft.NameID(kind, name)
}

// declareLocked publishes the id table with d entered under id, refusing an
// id an earlier name holds; the caller holds app.mu.
func (app *App) declareLocked(id uint64, name string, d declared) error {
	if _, taken := app.ids.load()[id]; taken {
		return fmt.Errorf("dps: %q has the id of an earlier name; rename it", name)
	}
	app.ids.set(id, d)
	return nil
}

// cowTable is a map read without a lock and republished whole on every
// write, which its owner serializes under a lock of its own: lookups on the
// token path are one atomic load and one map index, and a write, which
// copies the table, happens once per declaration or instance.
type cowTable[K comparable, V any] struct{ p atomic.Pointer[map[K]V] }

// load returns the current table, which nobody writes.
func (t *cowTable[K, V]) load() map[K]V {
	if m := t.p.Load(); m != nil {
		return *m
	}
	return nil
}

// set publishes a copy of the table with k mapped to v.
func (t *cowTable[K, V]) set(k K, v V) {
	m := maps.Clone(t.load())
	if m == nil {
		m = make(map[K]V, 1)
	}
	m[k] = v
	t.p.Store(&m)
}

// delete publishes a copy of the table without k.
func (t *cowTable[K, V]) delete(k K) {
	m := maps.Clone(t.load())
	delete(m, k)
	t.p.Store(&m)
}

// NodeNames lists the application's nodes in attachment order.
func (app *App) NodeNames() []string {
	app.mu.Lock()
	defer app.mu.Unlock()
	return append([]string(nil), app.nodeOrder...)
}

// MasterNode returns the first attached node, conventionally hosting main
// threads and graph calls.
func (app *App) MasterNode() string {
	app.mu.Lock()
	defer app.mu.Unlock()
	if len(app.nodeOrder) == 0 {
		return ""
	}
	return app.nodeOrder[0]
}

// Graph returns a registered flow graph by name (the paper's named graphs,
// reusable by other applications).
func (app *App) Graph(name string) (*Flowgraph, bool) {
	app.mu.Lock()
	defer app.mu.Unlock()
	g, ok := app.graphs[name]
	return g, ok
}

// Collection returns a registered thread collection by name.
func (app *App) Collection(name string) (*ThreadCollection, bool) {
	app.mu.Lock()
	defer app.mu.Unlock()
	tc, ok := app.collections[name]
	return tc, ok
}

// errBox gives atomic.Value a consistent concrete type regardless of the
// stored error's dynamic type.
type errBox struct{ err error }

// Err reports the first unrecoverable runtime error, if any.
func (app *App) Err() error {
	if v := app.failErr.Load(); v != nil {
		return v.(errBox).err
	}
	return nil
}

// Close shuts the application down. Pending calls fail.
func (app *App) Close() {
	if app.closed.Swap(true) {
		return
	}
	app.ftStopAll()
	app.fail(fmt.Errorf("dps: application closed"))
	app.mu.Lock()
	cleanup := app.cleanup
	app.mu.Unlock()
	for _, rt := range app.runtimes.load() {
		_ = rt.lnk.tr.Close()
		// Parked scheduler workers end here; work still in flight, or
		// arriving during shutdown, runs on goroutines that exit after it.
		rt.sched.Close()
	}
	for _, f := range cleanup {
		f()
	}
}

// fail records the first unrecoverable error, aborts all pending calls and
// wakes blocked operations so they unwind.
func (app *App) fail(err error) {
	app.failErr.CompareAndSwap(nil, errBox{err: err})
	first := app.Err()
	// ce.stop is written under the entry's shard lock (setCallStop);
	// drainAll holds each shard lock while evicting, so the reads here — on
	// entries no settler can reach any more — are ordered after the writes.
	pending := app.callreg.drainAll()
	for _, ce := range pending {
		if ce.stop != nil {
			ce.stop()
		}
	}
	for _, ce := range pending {
		select {
		case ce.ch <- CallResult{Err: first}:
		default:
		}
	}
	for _, rt := range app.runtimes.load() {
		rt.wakeBlocked()
	}
}

func (app *App) addCollection(tc *ThreadCollection) error {
	app.mu.Lock()
	defer app.mu.Unlock()
	if _, ok := app.collections[tc.name]; ok {
		return fmt.Errorf("dps: collection %q already exists", tc.name)
	}
	tc.id = app.nameID(idColl, tc.name)
	if err := app.declareLocked(tc.id, tc.name, declared{tc: tc}); err != nil {
		return err
	}
	app.collections[tc.name] = tc
	return nil
}

func (app *App) addGraph(g *Flowgraph) error {
	app.mu.Lock()
	defer app.mu.Unlock()
	if _, ok := app.graphs[g.name]; ok {
		return fmt.Errorf("dps: graph %q already exists", g.name)
	}
	g.id = app.nameID(idGraph, g.name)
	if err := app.declareLocked(g.id, g.name, declared{g: g}); err != nil {
		return err
	}
	app.graphs[g.name] = g
	return nil
}

func (app *App) hasNode(name string) bool {
	_, ok := app.runtime(name)
	return ok
}

func (app *App) runtime(name string) (*Runtime, bool) {
	rt, ok := app.runtimes.load()[name]
	return rt, ok
}

// allRuntimes snapshots every node runtime in attachment order.
func (app *App) allRuntimes() []*Runtime {
	app.mu.Lock()
	defer app.mu.Unlock()
	rts := make([]*Runtime, 0, len(app.nodeOrder))
	for _, name := range app.nodeOrder {
		rts = append(rts, app.runtimes.load()[name])
	}
	return rts
}

// replaceMapping swaps a collection's placement wholesale, rejecting the
// swap while calls execute. The check and the swap happen with every
// registry shard locked — the locks call registration takes — so a call
// racing the remap either registers first (lands in its shard before the
// sweep, and the swap is rejected) or registers after the new table is in
// place and routes consistently; no call can resolve half its tokens
// against each placement.
func (app *App) replaceMapping(tc *ThreadCollection, nodes []string) error {
	app.migrateMu.Lock() // a rehome's thread indexes stay in range
	defer app.migrateMu.Unlock()
	return app.callreg.withAllShards(func(pending int) error {
		if tc.place.Len() > 0 && pending > 0 {
			return fmt.Errorf("dps: collection %q: cannot replace the mapping while calls are executing; use Remap for a live migration", tc.name)
		}
		tc.place.Set(nodes)
		return nil
	})
}

// registerCall admits and registers a new pending call for the origin
// runtime. Admission is a single atomic add against the in-flight budget
// (Config.MaxInFlightCalls): over budget the add is rolled back and the
// caller gets ErrOverload with nothing registered and nothing posted.
func (app *App) registerCall(ctx context.Context, rt *Runtime) (uint64, *callEntry, error) {
	if max := app.cfg.MaxInFlightCalls; max > 0 {
		if app.callreg.pending.Add(1) > int64(max) {
			app.callreg.pending.Add(-1)
			atomic.AddInt64(&rt.stats.CallsRejected, 1)
			return 0, nil, ErrOverload
		}
	} else {
		app.callreg.pending.Add(1)
	}
	atomic.AddInt64(&rt.stats.CallsAdmitted, 1)
	id := app.callSeq.Add(1)
	ce := getCallEntry(ctx, rt)
	ce.start = time.Now().UnixNano()
	if p := app.cfg.TraceSample; p > 0 && (p >= 1 || mrand.Float64() < p) {
		ce.sampled = true
	}
	sh := app.callreg.shard(id)
	sh.mu.Lock()
	sh.calls[id] = ce //dpsvet:ignore poolown registration transfers ownership to the registry; the settler that removes the entry owns it
	sh.mu.Unlock()
	return id, ce, nil
}

// setCallStop attaches an async call's context watcher to it. If the call
// settled (result, failure or cancellation) while the watcher was being
// created, the watcher is detached immediately instead.
func (app *App) setCallStop(id uint64, stop func() bool) {
	sh := app.callreg.shard(id)
	sh.mu.Lock()
	ce, ok := sh.calls[id]
	if ok {
		ce.stop = stop
	}
	sh.mu.Unlock()
	if !ok {
		stop()
	}
}

func (app *App) completeCall(id uint64, res CallResult) {
	sh := app.callreg.shard(id)
	now := time.Now().UnixNano()
	sh.mu.Lock()
	ce, ok := sh.calls[id]
	delete(sh.calls, id)
	var stop func() bool
	if ok {
		stop = ce.stop
		if ce.start != 0 {
			sh.lat.Add(time.Duration(now - ce.start))
		}
	} else {
		// The orphaned result of a canceled call: reap the cancellation
		// record — no further tokens of this call can be in flight. Under
		// the shard lock, like cancelCall's record store, so the removal
		// and the record appear atomically to this call's other settlers.
		if _, wasCanceled := app.canceled.LoadAndDelete(id); wasCanceled {
			app.cancelActive.Add(-1)
		}
	}
	sh.mu.Unlock()
	if ok {
		app.callreg.pending.Add(-1)
		if stop != nil {
			stop()
		}
		if ce.sampled && ce.rt != nil {
			// Read before the channel send: a synchronous caller may recycle
			// the entry the moment it receives.
			ce.rt.traceSpan(id, "result", "", ce.start, now-ce.start)
		}
		ce.ch <- res
	}
}

// cancelCall aborts a pending call after its context fired: the caller gets
// cause delivered immediately, the entry leaves the pending table, and the
// call ID is recorded so the engine drops (and acknowledges) the call's
// in-flight tokens instead of letting them wedge flow-control windows.
// Blocked executions of the call are woken so they observe the cancellation
// and unwind.
func (app *App) cancelCall(id uint64, cause error) {
	sh := app.callreg.shard(id)
	sh.mu.Lock()
	ce, ok := sh.calls[id]
	if !ok {
		// The result won the race; the call completed normally.
		sh.mu.Unlock()
		return
	}
	delete(sh.calls, id)
	if app.cancelHook != nil {
		app.cancelHook()
	}
	// Mutated under the shard lock (like completeCall's reap) so the entry
	// removal and the cancellation record appear atomically to this call's
	// other settlers and to callDead — which, keyed by the same ID, use the
	// same shard.
	app.canceled.Store(id, struct{}{})
	app.cancelActive.Add(1)
	sh.mu.Unlock()
	app.callreg.pending.Add(-1)
	if ce.rt != nil && errors.Is(cause, context.DeadlineExceeded) {
		atomic.AddInt64(&ce.rt.stats.CallsExpired, 1)
	}
	select {
	case ce.ch <- CallResult{Err: cause}:
	default:
	}
	for _, rt := range app.runtimes.load() {
		rt.wakeBlocked()
	}
}

// callAborted reports whether a call was canceled. The fast path is one
// atomic load; the lock-free map is consulted only while canceled calls
// are outstanding, so the token hot paths never touch the registry shards.
func (app *App) callAborted(id uint64) bool {
	if app.cancelActive.Load() == 0 {
		return false
	}
	_, ok := app.canceled.Load(id)
	return ok
}

// callDead reports whether a call is canceled as an unwinding execution must
// see it: recorded as canceled, or still pending with a context that has
// fired (cancelCall's bookkeeping has not run yet). Both are read under the
// call's shard lock — the lock cancelCall moves a call from the one state to
// the other under — so no reader can find the call in neither. callAborted
// stays the check of the token hot paths.
func (app *App) callDead(id uint64) bool {
	sh := app.callreg.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ce, ok := sh.calls[id]; ok {
		return ce.ctx != nil && ce.ctx.Err() != nil
	}
	_, canceled := app.canceled.Load(id)
	return canceled
}

// callContext returns the context a pending call was registered with, or
// nil when the call is no longer pending (completed or canceled).
func (app *App) callContext(id uint64) context.Context {
	sh := app.callreg.shard(id)
	sh.mu.Lock()
	ce, ok := sh.calls[id]
	var ctx context.Context
	if ok {
		// Read under the shard lock: a pooled entry's ctx is rewritten on
		// reuse, so it must not be loaded after the entry leaves the table.
		ctx = ce.ctx
	}
	sh.mu.Unlock()
	if !ok {
		return nil
	}
	return ctx
}

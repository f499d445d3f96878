// Resilient run lifecycle: per-run wall-clock deadlines, persistent
// result-store integration (lookups, artifact replay, and commits), and
// graceful drain on SIGTERM — in-flight runs cancel at their next poll
// barrier, completed results stay committed, and the aborted keys are
// reported so a re-run resumes exactly the missing cells from the
// store.
package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"

	"mtprefetch/internal/core"
	"mtprefetch/internal/store"
)

// ErrDrained marks runs the harness refused to start (or gave up
// waiting on) because a drain had begun; errors.Is sees it through the
// *RunError wrapper. Runs canceled mid-flight carry core.ErrCanceled
// instead — both kinds are listed by Lifecycle.Aborted.
var ErrDrained = errors.New("harness: run aborted by drain")

// Lifecycle coordinates graceful shutdown across every experiment of
// one harness invocation. Drain (typically wired to SIGTERM/SIGINT via
// HandleSignals) stops new simulations from starting and cancels
// in-flight ones at their next cancellation-poll barrier; results that
// completed before the drain stay committed to the result store, so a
// later invocation resumes from exactly the aborted cells. A nil
// *Lifecycle never drains and costs nothing.
type Lifecycle struct {
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	aborted map[string]bool
}

// NewLifecycle builds an armed lifecycle.
func NewLifecycle() *Lifecycle {
	ctx, cancel := context.WithCancel(context.Background())
	return &Lifecycle{ctx: ctx, cancel: cancel, aborted: make(map[string]bool)}
}

// Context is the base context every run's Options.Ctx derives from; it
// is canceled by Drain. A nil lifecycle yields context.Background().
func (l *Lifecycle) Context() context.Context {
	if l == nil {
		return context.Background()
	}
	return l.ctx
}

// Drain begins a graceful shutdown; it is idempotent and safe from any
// goroutine (including signal handlers).
func (l *Lifecycle) Drain() {
	if l != nil {
		l.cancel()
	}
}

// Draining reports whether Drain has been called.
func (l *Lifecycle) Draining() bool {
	if l == nil {
		return false
	}
	select {
	case <-l.ctx.Done():
		return true
	default:
		return false
	}
}

// drainingC is the channel form of Draining for select sites; nil (a
// never-ready channel) when the lifecycle is nil.
func (l *Lifecycle) drainingC() <-chan struct{} {
	if l == nil {
		return nil
	}
	return l.ctx.Done()
}

// noteAborted records a run key the drain cost.
func (l *Lifecycle) noteAborted(key string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.aborted[key] = true
	l.mu.Unlock()
}

// Aborted lists, sorted, every run key the drain aborted — refused
// before start or canceled in flight. The exit summary prints it so
// the operator knows exactly which cells a resumed sweep will fill.
func (l *Lifecycle) Aborted() []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.aborted))
	for k := range l.aborted {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// HandleSignals wires OS signals to Drain: the first SIGTERM/SIGINT
// begins a graceful drain, a second one exits immediately. The returned
// stop function uninstalls the handler.
func (l *Lifecycle) HandleSignals() (stop func()) {
	if l == nil {
		return func() {}
	}
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "harness: %v: draining (in-flight runs cancel at the next barrier; signal again to exit now)\n", sig)
		l.Drain()
		if _, ok := <-ch; ok {
			os.Exit(130)
		}
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
	}
}

// runCtx derives one run's context: the lifecycle's drain context,
// deadline-bounded when RunTimeout is set. Both absent returns nil so
// the simulator skips cancellation polling entirely.
func (r *runner) runCtx() (context.Context, context.CancelFunc) {
	if r.c.RunTimeout > 0 {
		return context.WithTimeout(r.c.Lifecycle.Context(), r.c.RunTimeout)
	}
	if r.c.Lifecycle == nil {
		return nil, nil
	}
	return r.c.Lifecycle.Context(), nil
}

// storeEnabled reports whether a run may be served from / committed to
// the persistent store: a store is configured, the run carries no
// chaos injector (an injected run's Result may deliberately differ
// from the fault-free one, and injectors are stateful), and the sink
// has no live-only stream (tracing serialises the event ring directly,
// which stored artifacts cannot reproduce).
func (r *runner) storeEnabled(o core.Options) bool {
	return r.c.Store != nil && o.Inject == nil && !r.c.Obs.NeedsLive()
}

// storeFingerprint computes the run's content address, or "" when the
// store does not apply. A fingerprint failure only costs persistence:
// the run simulates normally.
func (r *runner) storeFingerprint(key string, o core.Options) string {
	if !r.storeEnabled(o) {
		return ""
	}
	fp, err := store.Fingerprint(key, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "harness: %v (run will not use the store)\n", err)
		return ""
	}
	return fp
}

// storeGet serves a run from the store when possible, replaying its
// artifact bundle into the sink so shared output files stay
// byte-identical with a live execution. ok reports a hit; err is a
// sink write failure on an otherwise-good hit (mirroring Finish
// errors, it surfaces without discarding the result).
func (r *runner) storeGet(key, fp string) (res *core.Result, ok bool, err error) {
	if fp == "" {
		return nil, false, nil
	}
	e, hit := r.c.Store.Get(fp, r.c.Obs.Streams()...)
	if !hit {
		return nil, false, nil
	}
	if err := r.c.Obs.FinishStored(key, e.Artifacts); err != nil {
		return e.Result, true, fmt.Errorf("%s: %w", key, err)
	}
	r.c.Debug.RunCached(key)
	return e.Result, true, nil
}

// storePut commits a completed run with the sink artifacts Finish
// rendered for it. A failed commit is logged and degrades the store
// (visible on /healthz and /store) but never the run: the result is
// already in hand, and the next sweep commits it again.
func (r *runner) storePut(key, fp string, artifacts map[string][]byte, res *core.Result) {
	if fp == "" {
		return
	}
	e := &store.Entry{Key: key, Fingerprint: fp, Result: res, Artifacts: artifacts}
	if err := r.c.Store.Put(e); err != nil {
		fmt.Fprintf(os.Stderr, "harness: store commit for %s failed: %v\n", key, err)
	}
}

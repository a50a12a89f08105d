package obs

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// CLIRun bundles the per-invocation observability shared by the three
// CLIs (snet, adversary, experiments): an optional run journal, an
// optional metrics dump at exit, an optional pprof/expvar debug
// server, and one cancellation path shared by -timeout and SIGINT.
// Typical use:
//
//	run, err := obs.StartCLI("adversary", *journalPath, *metrics, *pprofAddr)
//	...
//	ctx := run.SetupContext(*timeout)
//	... pass ctx to the engines; on *par.ErrCanceled call run.Entry.SetPartial ...
//	run.Finish()
//	os.Exit(run.ExitCode())
type CLIRun struct {
	// Entry is the journal record under construction; commands add
	// their payload with Entry.Set before Finish.
	Entry *Entry

	journal  *Journal
	metrics  bool
	reg      *Registry
	ln       net.Listener // debug server listener; closed by Finish
	progress *Progress    // from StartProgress; stopped by Finish

	ctx    context.Context    // from SetupContext; nil when not used
	cancel context.CancelFunc // cancels ctx and releases the signal goroutine

	mu          sync.Mutex
	done        bool
	interrupted bool // a SIGINT/SIGTERM arrived (vs. deadline expiry)
}

// StartCLI opens the journal (empty path = none), starts the debug
// server (empty addr = none), and begins a journal entry for cmd. The
// Default registry is published to expvar as "shufflenet" when the
// debug server is up.
func StartCLI(cmd, journalPath string, metrics bool, pprofAddr string) (*CLIRun, error) {
	j, err := OpenJournal(journalPath)
	if err != nil {
		return nil, err
	}
	r := &CLIRun{
		Entry:   NewEntry(cmd),
		journal: j,
		metrics: metrics,
		reg:     Default,
	}
	if j != nil {
		j.def = Header{Run: r.Entry.Run, Cmd: r.Entry.Cmd}
	}
	if pprofAddr != "" {
		Default.Expvar("shufflenet")
		ln, err := ServeDebug(pprofAddr)
		if err != nil {
			j.Close()
			return nil, err
		}
		r.ln = ln
	}
	return r, nil
}

// Journal exposes the run's journal (nil when none is attached) so
// long-lived processes can interleave their own records — the daemon's
// per-request lines, the optimum search's frontier checkpoints — with
// the run entry and progress heartbeats. Records written through it
// carry this run's ID and command.
func (r *CLIRun) Journal() *Journal {
	if r == nil {
		return nil
	}
	return r.journal
}

// StartProgress begins live telemetry for the run: a status line on
// stderr, heartbeat records in the journal (when -journal is given, so
// killed runs leave a trace trail), and /debug/progress + the
// "shufflenet.progress" expvar on the -pprof debug server. interval <= 0
// selects the 1 s default. The returned engine is already running; the
// caller registers richer sources (engines pass it down via options)
// and Finish stops it. A built-in source samples the run's metric
// registry — memo hits/misses/load, par worker occupancy, experiment
// cells, kernel counters — so every heartbeat carries the registry
// state with derived rates even before any engine-specific source
// registers.
func (r *CLIRun) StartProgress(interval time.Duration) *Progress {
	if r == nil {
		return nil
	}
	p := NewProgress(r.Entry.Cmd, r.Entry.Run, interval)
	reg := r.reg
	p.Register(func(s *Sample) {
		reg.SampleInto(s,
			"core.", "par.", "experiments.", "sortcheck.", "halver.", "network.evalbits.")
	})
	p.AddSink(NewStatusSink(os.Stderr))
	if r.journal != nil {
		p.AddSink(JournalSink(r.journal))
	}
	p.Start()
	r.progress = p
	return p
}

// SetupContext returns the run's context: canceled when timeout
// elapses (timeout <= 0 means none) or when SIGINT/SIGTERM arrives, so
// the deadline and the interrupt share one cancellation path — the
// engines only ever see a ctx. The first signal cancels gracefully and
// restores the default disposition, so a second ^C kills the process
// the usual way. Finish later inspects the context to mark the journal
// entry timed_out or interrupted.
func (r *CLIRun) SetupContext(timeout time.Duration) context.Context {
	if r == nil {
		return context.Background()
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case sig := <-ch:
			r.mu.Lock()
			r.interrupted = true
			r.mu.Unlock()
			fmt.Fprintf(os.Stderr, "\n%s: %v — canceling; interrupt again to kill\n", r.Entry.Cmd, sig)
			signal.Stop(ch)
			cancel()
		case <-ctx.Done():
			signal.Stop(ch)
		}
	}()
	r.ctx, r.cancel = ctx, cancel
	return ctx
}

// ExitCode returns the process exit status this run should end with:
// 130 after an interrupt (the shell convention for SIGINT), 0
// otherwise — a deadline expiry is a requested, orderly stop, not a
// failure. Call after Finish.
func (r *CLIRun) ExitCode() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.interrupted {
		return 130
	}
	return 0
}

// Finish completes the entry (wall/CPU/mem/metrics, cancellation
// state), writes it to the journal, closes the journal and the debug
// server, and dumps the registry to stderr when -metrics was given.
// Idempotent; errors are reported to stderr rather than returned,
// since this runs at exit.
func (r *CLIRun) Finish() { r.finish(r.metrics) }

func (r *CLIRun) finish(dumpMetrics bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return
	}
	r.done = true
	interrupted := r.interrupted
	r.mu.Unlock()

	// Stop the progress engine first: its final heartbeat lands before
	// the entry, so the journal tail reads heartbeat…heartbeat, entry.
	r.progress.Stop()

	// Read the cancellation state before releasing the context: an
	// interrupt beats a deadline when both raced (the user acted).
	if r.ctx != nil {
		if interrupted {
			r.Entry.Interrupted = true
		} else if errors.Is(r.ctx.Err(), context.DeadlineExceeded) {
			r.Entry.TimedOut = true
		}
		r.cancel()
	}
	if r.ln != nil {
		r.ln.Close()
	}

	r.Entry.Finish(r.reg)
	if err := r.journal.Write(r.Entry); err != nil {
		fmt.Fprintf(os.Stderr, "%s: journal: %v\n", r.Entry.Cmd, err)
	}
	if err := r.journal.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: journal: %v\n", r.Entry.Cmd, err)
	}
	if dumpMetrics {
		fmt.Fprintf(os.Stderr, "--- metrics (%s) ---\n", r.Entry.Cmd)
		r.reg.WriteText(os.Stderr)
	}
}

// ServeDebug starts an HTTP server on addr exposing /debug/pprof and
// /debug/vars (via the default mux, where the pprof and expvar imports
// register themselves) plus /debug/progress (mounted explicitly on a
// per-server wrapper mux — see ProgressHandler; nothing of ours touches
// http.DefaultServeMux, so a daemon owning its own mux can coexist with
// a -pprof debug server in one process). The listener is created
// synchronously so bad addresses fail fast and returned so callers can
// close it on every exit path; serving happens in a background
// goroutine.
func ServeDebug(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/progress", ProgressHandler())
	mux.Handle("/", http.DefaultServeMux)
	go func() {
		if err := http.Serve(ln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintf(os.Stderr, "obs: debug server: %v\n", err)
		}
	}()
	return ln, nil
}

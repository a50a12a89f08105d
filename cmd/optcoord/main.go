// Command optcoord coordinates a distributed exact optimum search:
// it serves a circuit to adversary -optimal -coord worker processes,
// leases them chunks of the 81-prefix search frontier, merges the
// packed incumbents they report (an integer max — see DESIGN.md §4,
// decision 14), re-leases chunks whose worker went quiet, and verifies
// the final witness against the circuit with the existing checker
// before reporting it.
//
// Usage:
//
//	optcoord -file net.txt [-addr :8091] [-chunk 8] [-lease-ttl 30s]
//	         [-resume run.jsonl] [-linger 3s] [-v]
//	         [-journal run.jsonl] [-metrics] [-pprof ADDR]
//	         [-progress] [-progress-interval 1s]
//
// Endpoints (JSON): GET /v1/net, POST /v1/lease, POST /v1/report,
// GET /v1/result.
//
// With -journal, every reported chunk is checkpointed as prefix_done
// records; -resume reads such a journal (from a killed coordinator or
// a single-process adversary -optimal -journal run) and only leases
// the prefixes still missing — the merged result is byte-identical to
// an uninterrupted run. After the frontier completes, the coordinator
// keeps serving for -linger so late workers can learn the search is
// done, then exits. SIGINT/SIGTERM stops early; the journal then holds
// the frontier completed so far, ready for -resume.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"shufflenet/internal/coord"
	"shufflenet/internal/core"
	"shufflenet/internal/network"
	"shufflenet/internal/obs"
)

func main() {
	file := flag.String("file", "", "circuit to search (network.WriteText format; required)")
	addr := flag.String("addr", ":8091", "listen address")
	chunk := flag.Int("chunk", coord.DefaultChunk, "frontier prefixes per lease")
	leaseTTL := flag.Duration("lease-ttl", coord.DefaultLeaseTTL, "how long a lease may sit unreported before it is re-issued")
	resume := flag.String("resume", "", "resume from this journal's frontier records (skips completed prefixes)")
	linger := flag.Duration("linger", 3*time.Second, "keep serving this long after the frontier completes, so polling workers learn the result")
	verbose := flag.Bool("v", false, "print the witness pattern and set")
	journal := flag.String("journal", "", "append the run entry and per-chunk frontier checkpoints to this JSONL path")
	metrics := flag.Bool("metrics", false, "dump the metric registry to stderr at exit")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof, /debug/vars, and /debug/progress on this address")
	progress := flag.Bool("progress", false, "emit live progress: stderr status line, plus journal heartbeats when -journal is set")
	progressIvl := flag.Duration("progress-interval", time.Second, "cadence of -progress snapshots")
	flag.Parse()

	cli, err := obs.StartCLI("optcoord", *journal, *metrics, *pprofAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optcoord:", err)
		os.Exit(1)
	}
	fail := func(msg string) {
		fmt.Fprintln(os.Stderr, "optcoord:", msg)
		cli.Entry.Set("error", msg)
		cli.Finish()
		os.Exit(1)
	}
	ctx := cli.SetupContext(0) // canceled by SIGINT/SIGTERM
	var prog *obs.Progress
	if *progress {
		prog = cli.StartProgress(*progressIvl)
	}

	if *file == "" {
		fail("-file is required (the circuit the workers will search)")
	}
	f, err := os.Open(*file)
	if err != nil {
		fail(err.Error())
	}
	circ, err := network.ReadText(f)
	f.Close()
	if err != nil {
		fail("parse: " + err.Error())
	}
	n := circ.Wires()
	if n > core.MaxOptimalWires {
		fail(fmt.Sprintf("the optimum search handles at most %d wires (core.MaxOptimalWires); the circuit has %d", core.MaxOptimalWires, n))
	}
	fw, fr, err := coord.OpenFrontier(cli.Journal(), circ, *resume)
	if err != nil {
		fail(err.Error())
	}
	fmt.Printf("optcoord: %v from %s, fingerprint %s, frontier %d prefixes\n", circ, *file, fr.Net, fr.Prefixes)
	cli.Entry.Set("file", *file)
	cli.Entry.Set("n", n)
	cli.Entry.Set("fingerprint", fr.Net)
	cli.Entry.Set("chunk", *chunk)
	if *resume != "" {
		fmt.Printf("optcoord: resuming from %s: seq %d, %d/%d prefixes already done\n",
			*resume, fr.LastSeq, len(fr.Done), fr.Prefixes)
	}

	co, err := coord.New(circ, coord.Options{
		Chunk:    *chunk,
		LeaseTTL: *leaseTTL,
		Frontier: fr,
		Writer:   fw,
		Progress: prog,
	})
	if err != nil {
		fail(err.Error())
	}
	defer co.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err.Error())
	}
	hs := &http.Server{Handler: co.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Printf("optcoord: listening on %s\n", ln.Addr())
	cli.Entry.Set("addr", ln.Addr().String())

	start := time.Now()
	exit := 0
	packed, waitErr := co.Wait(ctx)
	if waitErr == nil {
		// Let polling workers observe completion before the socket goes
		// away, then drain.
		time.Sleep(*linger)
		size, p, set := core.DecodeOptimalWitness(n, packed)
		cli.Entry.Set("optimal_d", size)
		cli.Entry.Set("verified", co.Verified())
		fmt.Printf("optimal noncolliding [M_0]-set: %d of %d wires (exact, merged, %v)\n",
			size, n, time.Since(start).Round(time.Millisecond))
		if *verbose {
			fmt.Printf("  witness pattern: %v\n", p)
			fmt.Printf("  set: %v\n", set)
		}
		if co.Verified() {
			fmt.Println("witness verified against the circuit (pattern.Noncolliding)")
		} else {
			fmt.Println("witness verification FAILED — do not trust this result")
			exit = 1
		}
	} else {
		got, _ := co.Result()
		fmt.Fprintf(os.Stderr, "optcoord: stopped before completion (%v); best merged incumbent so far packs size %d; the journal's prefix_done records are ready for -resume\n",
			waitErr, got>>(2*uint(n)))
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = hs.Shutdown(sctx)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "optcoord: shutdown:", err)
	}
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "optcoord:", err)
			exit = 1
		}
	default:
	}
	cli.Finish()
	if exit == 0 {
		exit = cli.ExitCode()
		if exit == 130 {
			// An interrupted coordinator exits through the journal with
			// its frontier intact; that is an orderly stop for -resume,
			// but keep the shell convention.
		}
	}
	os.Exit(exit)
}

// Command adversary runs the paper's lower-bound adversary
// (Lemma 4.1 / Theorem 4.1 / Corollary 4.1.1, made constructive)
// against a chosen iterated reverse delta network and, when the
// surviving noncolliding set has at least two wires, prints and
// verifies a concrete certificate of non-sortability.
//
// Usage:
//
//	adversary -n 256 -blocks 2 [-topology butterfly|random|bitonic]
//	          [-seed N] [-k K] [-v] [-timeout 30s] [-workers N]
//	          [-journal run.jsonl] [-metrics] [-pprof ADDR]
//	          [-progress] [-progress-interval 1s]
//	adversary -file net.txt [-l L] [-save cert.json]
//	adversary -check cert.json -file net.txt
//	adversary -optimal [-memo BYTES|auto|off] [-n 16 ... | -file net.txt]
//	          [-spill table.spill [-spill-bytes N]] [-resume run.jsonl]
//	          [-coord URL]
//
// Topologies:
//
//	butterfly  iterated full butterflies with random inter-block
//	           permutations (the canonical shuffle-based stack)
//	random     random full reverse delta blocks with random glue
//	bitonic    the first -blocks stages of Batcher's bitonic sorter,
//	           expressed as an iterated RDN
//
// With -save, the certificate is written as JSON; -check verifies a
// saved certificate against a circuit file (no adversary run needed —
// the certificate is self-contained evidence).
//
// With -optimal, the constructive adversary is replaced by the exact
// branch-and-bound optimum search (core.OptimalNoncollidingOpt): the
// largest noncolliding [M_0]-set any pattern admits on the circuit,
// the quantity the A2/A3 experiments compare the adversary against.
// It handles any circuit of at most core.MaxOptimalWires = 26 wires
// (with -file, no power-of-two or RDN-structure requirement). -memo
// sizes its transposition table; the table's final hit/miss/eviction
// counters are printed and journaled.
//
// Durability and distribution of -optimal:
//
//   - -spill attaches a disk tier to the transposition table
//     (core.OpenSpillMemo): RAM evictions demote to the mmap'd file
//     instead of being dropped, and an existing file reopens warm, so
//     a later run starts with the previous run's bounds. -spill-bytes
//     sizes the file (min 64 KiB; the stored geometry wins on reopen).
//   - With -journal, the search checkpoints its 81-prefix frontier as
//     typed records (frontier_init / prefix_done) in the same JSONL
//     stream. -resume reads such a journal, skips the prefixes any
//     prior run completed, seeds the recorded incumbent, and returns
//     the byte-identical witness the uninterrupted run would have —
//     see DESIGN.md §4, decision 14 for why that is exact.
//   - -coord joins a cmd/optcoord coordinator as a worker process:
//     the circuit comes from the coordinator (no -n/-file needed),
//     leased frontier chunks are searched with this process's table,
//     and packed results are reported back for the max-merge.
//
// With -file, the circuit is loaded from the text serialization
// (network.WriteText format), its iterated reverse delta structure is
// recovered with delta.DecomposeIterated (block height -l, default
// lg n), and the adversary attacks the recovery; the certificate is
// verified against the loaded circuit itself.
//
// Observability: -journal appends one JSON line per invocation,
// including the per-block reports (survivors, surviving-set counts,
// collisions charged) and the certificate summary; -metrics dumps the
// metric registry (block counts, survivor histogram, lemma counters)
// to stderr at exit; -pprof serves /debug/pprof, /debug/vars, and
// /debug/progress. -progress adds live telemetry at the
// -progress-interval cadence: a rewriting stderr status line (blocks
// or DFS nodes done, rates, ETA from the completion fraction) and —
// when -journal is set — heartbeat records interleaved with the run
// entry, so a killed run still leaves a progress trail (see
// cmd/obsreport).
//
// Robustness: -timeout bounds the run; the deadline and SIGINT share
// one cancellation path, so either way the journal entry is flushed
// with the blocks completed so far (marked timed_out or interrupted,
// with the partial-progress fields). A deadline exit is status 0; an
// interrupt exits 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"shufflenet/internal/bits"
	"shufflenet/internal/coord"
	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/network"
	"shufflenet/internal/obs"
	"shufflenet/internal/par"
	"shufflenet/internal/perm"
)

func main() {
	n := flag.Int("n", 256, "number of wires (power of two)")
	blocks := flag.Int("blocks", 2, "number of reverse delta blocks")
	topology := flag.String("topology", "butterfly", "butterfly | random | bitonic")
	seed := flag.Int64("seed", 1, "random seed")
	k := flag.Int("k", 0, "averaging parameter k (0 = lg n, the paper's choice)")
	verbose := flag.Bool("v", false, "print per-block reports and the full certificate inputs")
	file := flag.String("file", "", "load a circuit (network.WriteText format) and attack its recovered RDN structure")
	blockL := flag.Int("l", 0, "block height for -file decomposition (0 = lg n)")
	save := flag.String("save", "", "write the certificate as JSON to this path")
	check := flag.String("check", "", "verify a saved certificate (JSON) against the circuit from -file, then exit")
	journal := flag.String("journal", "", "append a run-journal JSON line to this path")
	metrics := flag.Bool("metrics", false, "dump the metric registry to stderr at exit")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof, /debug/vars, and /debug/progress on this address")
	progress := flag.Bool("progress", false, "emit live progress: stderr status line, plus journal heartbeats when -journal is set")
	progressIvl := flag.Duration("progress-interval", time.Second, "cadence of -progress snapshots")
	optimal := flag.Bool("optimal", false, "run the exact optimum search instead of the constructive adversary (n <= 26; with -file, any circuit)")
	memoSpec := flag.String("memo", "auto", "transposition table for -optimal: byte size, \"auto\", or \"off\"")
	spill := flag.String("spill", "", "with -optimal: spill file for the transposition table (created, or reopened warm)")
	spillBytes := flag.Int64("spill-bytes", 256<<20, "with -spill: disk budget in bytes for a new spill file (min 64 KiB)")
	resume := flag.String("resume", "", "with -optimal: resume from this journal's frontier records, skipping completed prefixes")
	coordURL := flag.String("coord", "", "with -optimal: join the optimum-search coordinator at this URL as a worker (circuit comes from the coordinator)")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = none); partial per-block results are kept")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS); Theorem 4.1's recursion forks automatically, so this caps the scheduler")
	flag.Parse()

	// The adversary's parallelism is the automatic subtree fork inside
	// core.lemmaRec, which rides the Go scheduler rather than an explicit
	// pool — so the worker cap is applied as GOMAXPROCS.
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	var err error
	cli, err = obs.StartCLI("adversary", *journal, *metrics, *pprofAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adversary:", err)
		os.Exit(1)
	}
	cli.Entry.Seed = *seed
	cli.Entry.Set("workers", *workers)
	ctx := cli.SetupContext(*timeout)
	if *progress {
		prog = cli.StartProgress(*progressIvl)
	}
	defer cli.Finish()

	if *k < 0 || *k > core.MaxK {
		fail(fmt.Sprintf("-k must be in [0, %d] (0 = lg n); got %d", core.MaxK, *k))
	}
	if *check != "" {
		if *file == "" {
			fail("-check needs -file with the circuit to verify against")
		}
		runCheck(*check, *file)
		cli.Finish()
		return
	}
	saveCert = *save

	ocfg := optimalConfig{
		memoSpec: *memoSpec, workers: *workers, verbose: *verbose,
		resume: *resume, spill: *spill, spillBytes: *spillBytes,
	}
	if *coordURL != "" {
		if !*optimal {
			fail("-coord requires -optimal (only the optimum search is distributed)")
		}
		if *resume != "" {
			fail("-resume and -coord are mutually exclusive: the coordinator owns the frontier, workers just lease chunks of it")
		}
		runOptimalWorker(ctx, *coordURL, ocfg)
		cli.Finish()
		return
	}

	if *file != "" {
		if *optimal {
			circ := loadCircuit(*file)
			cli.Entry.Set("file", *file)
			cli.Entry.Set("n", circ.Wires())
			fmt.Printf("loaded: %v from %s\n", circ, *file)
			runOptimal(ctx, circ, ocfg)
			cli.Finish()
			return
		}
		runOnFile(ctx, *file, *blockL, *k, *verbose)
		cli.Finish()
		return
	}

	if !bits.IsPow2(*n) {
		fail("n must be a power of two")
	}
	d := bits.Lg(*n)
	rng := rand.New(rand.NewSource(*seed))

	it := delta.NewIterated(*n)
	switch *topology {
	case "butterfly":
		for b := 0; b < *blocks; b++ {
			var pre perm.Perm
			if b > 0 {
				pre = perm.Random(*n, rng)
			}
			it.AddBlock(pre, delta.Butterfly(d))
		}
	case "random":
		for b := 0; b < *blocks; b++ {
			it.AddBlock(perm.Random(*n, rng), delta.Random(d, 1.0, rng))
		}
	case "bitonic":
		if *blocks > d {
			fail(fmt.Sprintf("bitonic has only %d stages at n=%d", d, *n))
		}
		prev := perm.Identity(*n)
		for s := 1; s <= *blocks; s++ {
			rho := delta.ReverseLowBits(*n, s)
			it.AddBlock(prev.Compose(rho), delta.BitonicStage(d, s))
			prev = rho
		}
	default:
		fail("unknown topology " + *topology)
	}

	fmt.Printf("network: %s, n=%d, %d blocks, comparator depth %d, size %d\n",
		*topology, *n, it.Blocks(), it.Depth(), it.Size())
	cli.Entry.Set("topology", *topology)
	cli.Entry.Set("n", *n)
	cli.Entry.Set("blocks", *blocks)
	cli.Entry.Set("depth", it.Depth())

	if *optimal {
		circ, _ := it.ToNetwork()
		runOptimal(ctx, circ, ocfg)
		cli.Finish()
		return
	}

	sp := obs.NewSpan("theorem41", obs.A("n", *n), obs.A("blocks", *blocks))
	an, terr := core.Theorem41Prog(ctx, it, *k, prog)
	sp.End()
	cli.Entry.AddSpans(sp)
	if terr != nil {
		reportCanceled(an, terr, *verbose)
	}
	journalAnalysis(an)

	fmt.Printf("adversary: k=%d\n", an.K)
	printReports(an.Reports, *verbose)
	fmt.Printf("surviving noncolliding set D: %d wires\n", len(an.D))

	cert, err := an.Certificate()
	if err != nil {
		fmt.Printf("no certificate: %v\n", err)
		fmt.Println("(the adversary cannot rule out that this network sorts; at this depth it may well)")
		cli.Entry.Set("certificate", false)
		cli.Finish()
		os.Exit(0)
	}

	fmt.Printf("certificate: wires w0=%d, w1=%d carry adjacent values m=%d, m+1=%d\n",
		cert.W0, cert.W1, cert.M, cert.M+1)
	if *verbose {
		fmt.Printf("  D  = %v\n", cert.D)
		fmt.Printf("  π  = %v\n", cert.Pi)
		fmt.Printf("  π′ = %v\n", cert.PiPrime)
	}

	circ, _ := it.ToNetwork()
	if err := cert.Verify(circ); err != nil {
		fail("certificate verification FAILED: " + err.Error())
	}
	journalCertificate(cert, true)
	fmt.Println("certificate verified: the network routes π and π′ identically and never compares m with m+1")
	fmt.Println("conclusion: this network is NOT a sorting network (Corollary 4.1.1)")
	saveCertificate(cert)
}

var (
	saveCert string
	cli      *obs.CLIRun
	prog     *obs.Progress // nil unless -progress
)

// printReports prints the per-block telemetry under -v.
func printReports(reports []core.BlockReport, verbose bool) {
	if !verbose {
		return
	}
	for _, rep := range reports {
		fmt.Printf("  block %d (l=%d): |D| %d -> survivors %d across %d sets (%d collisions) -> kept set %d of size %d (paper bound %.3g)\n",
			rep.Block, rep.Levels, rep.Before, rep.Survivors, rep.SetCount,
			rep.Collisions, rep.ChosenSet, rep.After, rep.PaperBound)
	}
}

// journalAnalysis records the adversary outcome — per-block surviving
// set sizes and collision counts — in the run journal entry.
func journalAnalysis(an *core.Analysis) {
	cli.Entry.Set("k", an.K)
	cli.Entry.Set("d_size", len(an.D))
	cli.Entry.Set("reports", an.Reports)
}

// journalCertificate records the certificate summary.
func journalCertificate(cert *core.Certificate, verified bool) {
	cli.Entry.Set("certificate", map[string]interface{}{
		"w0": cert.W0, "w1": cert.W1, "m": cert.M, "verified": verified,
	})
}

// saveCertificate writes the certificate JSON when -save was given.
func saveCertificate(cert *core.Certificate) {
	if saveCert == "" {
		return
	}
	f, err := os.Create(saveCert)
	if err != nil {
		fail(err.Error())
	}
	defer f.Close()
	if err := cert.WriteJSON(f); err != nil {
		fail(err.Error())
	}
	fmt.Printf("certificate written to %s\n", saveCert)
}

// runCheck verifies a saved certificate against a circuit file.
func runCheck(certPath, netPath string) {
	cf, err := os.Open(certPath)
	if err != nil {
		fail(err.Error())
	}
	defer cf.Close()
	cert, err := core.ReadCertificateJSON(cf)
	if err != nil {
		fail(err.Error())
	}
	nf, err := os.Open(netPath)
	if err != nil {
		fail(err.Error())
	}
	defer nf.Close()
	circ, err := network.ReadText(nf)
	if err != nil {
		fail("parse: " + err.Error())
	}
	if err := cert.Verify(circ); err != nil {
		fail("certificate REJECTED: " + err.Error())
	}
	cli.Entry.Set("check", certPath)
	journalCertificate(cert, true)
	fmt.Printf("certificate %s verified against %s: the circuit is NOT a sorting network\n", certPath, netPath)
}

// reportCanceled journals the partial progress of a canceled adversary
// run (per-block reports up to the cut, the surviving-set size, and
// the ErrCanceled fields), prints an honest truncated summary, and
// exits through the shared path: 0 after a deadline, 130 after ^C. No
// certificate is derived — D is noncolliding only for the prefix of
// the network actually processed.
func reportCanceled(an *core.Analysis, err error, verbose bool) {
	var ce *par.ErrCanceled
	if errors.As(err, &ce) {
		cli.Entry.SetPartial(ce.Fields())
	}
	journalAnalysis(an)
	cli.Entry.Set("certificate", false)
	printReports(an.Reports, verbose)
	fmt.Printf("run canceled (%v) after %d completed blocks; surviving set so far: %d wires\n",
		err, len(an.Reports), len(an.D))
	fmt.Println("(no certificate: the analysis covers only a prefix of the network)")
	cli.Finish()
	os.Exit(cli.ExitCode())
}

// loadCircuit reads a network.WriteText circuit file or exits.
func loadCircuit(path string) *network.Network {
	f, err := os.Open(path)
	if err != nil {
		fail(err.Error())
	}
	defer f.Close()
	circ, err := network.ReadText(f)
	if err != nil {
		fail("parse: " + err.Error())
	}
	return circ
}

// optimalConfig carries the -optimal flag cluster.
type optimalConfig struct {
	memoSpec   string
	workers    int
	verbose    bool
	resume     string
	spill      string
	spillBytes int64
}

// optimalMemo builds the transposition table for an n-wire -optimal
// run: nil means "off"; with -spill the table is disk-backed via
// core.OpenSpillMemo (reopened warm when the file already exists). The
// spill tag is the build's git describe (falling back to the Go
// version), so a file written by different code is refused rather than
// misread.
func optimalMemo(n int, cfg optimalConfig) (m *core.Memo, warm bool) {
	var ram int64
	switch cfg.memoSpec {
	case "off":
		if cfg.spill != "" {
			fail("-memo off cannot be combined with -spill (there is no table to spill)")
		}
		return nil, false
	case "", "auto":
		ram = core.AutoMemoBytes(n)
	default:
		b, err := strconv.ParseInt(cfg.memoSpec, 10, 64)
		if err != nil || b <= 0 {
			fail(fmt.Sprintf("-memo must be a positive byte count, \"auto\", or \"off\" (got %q)", cfg.memoSpec))
		}
		ram = b
	}
	if cfg.spill == "" {
		return core.NewMemo(ram), false
	}
	tag := cli.Entry.Git
	if tag == "" {
		tag = runtime.Version()
	}
	m, warm, err := core.OpenSpillMemo(cfg.spill, ram, cfg.spillBytes, tag)
	if err != nil {
		fail(err.Error())
	}
	mode := "cold"
	if warm {
		mode = "warm (reopened with the previous run's bounds)"
	}
	ms := m.Stats()
	fmt.Printf("transposition table spill: %s, %d bytes on disk, %s\n", cfg.spill, ms.DiskBytes, mode)
	cli.Entry.Set("spill", map[string]any{"path": cfg.spill, "disk_bytes": ms.DiskBytes, "warm": warm})
	return m, warm
}

// printMemoStats prints and journals the table's final counters.
func printMemoStats(m *core.Memo, noMemo bool) {
	cli.Entry.Set("memo", m.Stats())
	if noMemo {
		fmt.Println("transposition table: off")
		return
	}
	ms := m.Stats()
	fmt.Printf("transposition table: %d bytes, %d hits / %d misses / %d stores / %d evictions\n",
		ms.Bytes, ms.Hits, ms.Misses, ms.Stores, ms.Evictions)
	if ms.DiskBytes > 0 {
		fmt.Printf("spill tier: %d bytes, %d disk hits / %d demotions\n",
			ms.DiskBytes, ms.DiskHits, ms.Demotions)
	}
}

// runOptimal runs the exact branch-and-bound optimum search on circ —
// the largest noncolliding [M_0]-set any {S0,M0,L0}-pattern admits,
// i.e. the ceiling on what any adversary of the paper's form could
// achieve there. The transposition table is sized by -memo (optionally
// spill-backed by -spill); with -journal the prefix frontier is
// checkpointed, and -resume restarts from such a checkpoint with a
// byte-identical result.
func runOptimal(ctx context.Context, circ *network.Network, cfg optimalConfig) {
	n := circ.Wires()
	if n > core.MaxOptimalWires {
		fail(fmt.Sprintf("-optimal handles at most %d wires (core.MaxOptimalWires); the circuit has %d", core.MaxOptimalWires, n))
	}
	opt := core.OptimalOptions{Workers: cfg.workers, Progress: prog}
	opt.Memo, _ = optimalMemo(n, cfg)
	opt.NoMemo = opt.Memo == nil
	defer opt.Memo.Close()
	cli.Entry.Set("optimal", true)
	cli.Entry.Set("memo_bytes", opt.Memo.Stats().Bytes) // 0 when off

	// Frontier checkpointing and resume. The records ride the run
	// journal; parsing a prior journal yields the prefixes to skip and
	// the incumbent to seed, which by DESIGN.md decision 14 reproduces
	// the uninterrupted run exactly.
	fp := core.NetworkFingerprint(circ)
	prefixes := core.OptimalPrefixes(n)
	var fr *coord.Frontier
	if cfg.resume != "" {
		var err error
		fr, err = coord.ParseResumeJournalFile(cfg.resume)
		if err != nil {
			fail("-resume: " + err.Error())
		}
		if fr.Net != fp {
			fail(fmt.Sprintf("-resume: journal %s checkpoints network %s, but this run searches %s (different circuit)", cfg.resume, fr.Net, fp))
		}
		opt.SkipPrefix = fr.Skip
		opt.SeedIncumbent = fr.Seed
		fmt.Printf("resuming from %s: seq %d, %d/%d prefixes skipped\n",
			cfg.resume, fr.LastSeq, len(fr.Done), prefixes)
		cli.Entry.Set("resume", map[string]any{"from": cfg.resume, "from_seq": fr.LastSeq, "skipped": len(fr.Done)})
	}
	fw := coord.NewFrontierWriter(cli.Journal(), cli.Entry.Run)
	if err := fw.Init(fp, n, prefixes, opt.SeedIncumbent); err != nil {
		fail("journal: " + err.Error())
	}
	if fr != nil {
		if err := fw.Resumed(cfg.resume, fr.LastSeq, len(fr.Done), prefixes, fr.Seed); err != nil {
			fail("journal: " + err.Error())
		}
	}
	var journalErr sync.Once
	opt.OnPrefixDone = func(p int, inc uint64) {
		if err := fw.PrefixDone(p, inc); err != nil {
			journalErr.Do(func() {
				fmt.Fprintf(os.Stderr, "adversary: frontier checkpoint: %v (search continues; the journal is incomplete)\n", err)
			})
		}
	}

	sp := obs.NewSpan("optimal", obs.A("n", n))
	start := time.Now()
	size, p, set, err := core.OptimalNoncollidingOpt(ctx, circ, opt)
	sp.End()
	cli.Entry.AddSpans(sp)
	if err != nil {
		cli.Entry.Set("memo", opt.Memo.Stats())
		var ce *par.ErrCanceled
		if errors.As(err, &ce) {
			cli.Entry.SetPartial(ce.Fields())
		}
		fmt.Printf("optimum search canceled (%v); a partial enumeration proves no optimum, so none is reported\n", err)
		cli.Finish()
		os.Exit(cli.ExitCode())
	}
	cli.Entry.Set("optimal_d", size)
	fmt.Printf("optimal noncolliding [M_0]-set: %d of %d wires (exact, %v)\n",
		size, n, time.Since(start).Round(time.Millisecond))
	if cfg.verbose {
		fmt.Printf("  witness pattern: %v\n", p)
		fmt.Printf("  set: %v\n", set)
	}
	printMemoStats(opt.Memo, opt.NoMemo)
}

// runOptimalWorker joins a cmd/optcoord coordinator: the circuit comes
// over HTTP, leased frontier chunks are searched with this process's
// table (optionally spill-backed), and packed results are reported
// back. Prints the final merged result when the frontier completes.
func runOptimalWorker(ctx context.Context, url string, cfg optimalConfig) {
	circ, err := coord.FetchNet(ctx, nil, url)
	if err != nil {
		fail(err.Error())
	}
	n := circ.Wires()
	fmt.Printf("coordinator %s: %v, fingerprint %s\n", url, circ, core.NetworkFingerprint(circ))
	cli.Entry.Set("coord", url)
	cli.Entry.Set("n", n)

	m, _ := optimalMemo(n, cfg)
	defer m.Close()
	start := time.Now()
	packed, err := coord.RunWorker(ctx, url, coord.WorkerOptions{
		Workers:  cfg.workers,
		Memo:     m,
		Progress: prog,
	})
	cli.Entry.Set("memo", m.Stats())
	if err != nil {
		var ce *par.ErrCanceled
		if errors.As(err, &ce) {
			cli.Entry.SetPartial(ce.Fields())
			fmt.Printf("worker canceled (%v)\n", err)
			cli.Finish()
			os.Exit(cli.ExitCode())
		}
		fail(err.Error())
	}
	size, p, set := core.DecodeOptimalWitness(n, packed)
	cli.Entry.Set("optimal_d", size)
	fmt.Printf("optimal noncolliding [M_0]-set: %d of %d wires (exact, %v)\n",
		size, n, time.Since(start).Round(time.Millisecond))
	if cfg.verbose {
		fmt.Printf("  witness pattern: %v\n", p)
		fmt.Printf("  set: %v\n", set)
	}
	printMemoStats(m, m == nil)
}

// runOnFile loads a circuit, recovers its iterated RDN structure, and
// runs the full pipeline against the loaded circuit.
func runOnFile(ctx context.Context, path string, l, k int, verbose bool) {
	f, err := os.Open(path)
	if err != nil {
		fail(err.Error())
	}
	defer f.Close()
	circ, err := network.ReadText(f)
	if err != nil {
		fail("parse: " + err.Error())
	}
	n := circ.Wires()
	if !bits.IsPow2(n) {
		fail("circuit width must be a power of two")
	}
	if l <= 0 {
		l = bits.Lg(n)
	}
	fmt.Printf("loaded: %v from %s\n", circ, path)
	it, ok := delta.DecomposeIterated(circ, l)
	if !ok {
		fail(fmt.Sprintf("the circuit is not a (k,%d)-iterated reverse delta network; the paper's lower bound does not apply to it", l))
	}
	fmt.Printf("recovered: %d reverse delta blocks of %d levels\n", it.Blocks(), l)
	cli.Entry.Set("file", path)
	cli.Entry.Set("n", n)
	cli.Entry.Set("blocks", it.Blocks())

	sp := obs.NewSpan("theorem41", obs.A("n", n), obs.A("blocks", it.Blocks()))
	an, terr := core.Theorem41Prog(ctx, it, k, prog)
	sp.End()
	cli.Entry.AddSpans(sp)
	if terr != nil {
		reportCanceled(an, terr, verbose)
	}
	journalAnalysis(an)

	printReports(an.Reports, verbose)
	fmt.Printf("surviving noncolliding set D: %d wires\n", len(an.D))
	cert, err := an.Certificate()
	if err != nil {
		fmt.Printf("no certificate: %v\n", err)
		cli.Entry.Set("certificate", false)
		cli.Finish()
		os.Exit(0)
	}
	fmt.Printf("certificate: wires w0=%d, w1=%d, adjacent values m=%d, m+1=%d\n",
		cert.W0, cert.W1, cert.M, cert.M+1)
	if err := cert.Verify(circ); err != nil {
		fail("certificate verification FAILED: " + err.Error())
	}
	journalCertificate(cert, true)
	fmt.Println("certificate verified against the loaded circuit: NOT a sorting network")
	saveCertificate(cert)
}

// fail reports a fatal error and exits 1. Finish tears down the whole
// run — journal flush, -pprof listener close, signal-watcher release —
// so no goroutine or socket outlives an error exit.
func fail(msg string) {
	fmt.Fprintln(os.Stderr, "adversary:", msg)
	if cli != nil {
		cli.Entry.Set("error", msg)
		cli.Finish()
	}
	os.Exit(1)
}

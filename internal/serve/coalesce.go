package serve

import (
	"sync"
	"time"

	"shufflenet/internal/network"
	"shufflenet/internal/obs"
)

// The probe coalescer batches concurrent /v1/check probe requests onto
// the 64-lane SWAR kernel. Each lane of an EvalBits word settles one
// 0-1 input, so a request probing a single mask would waste 63 of the
// 64 lanes; instead, probes for the *same* network (same canonicalKey,
// hence identical behavior) arriving within a short window are packed
// into shared words — up to 64 pending inputs per word — and evaluated
// with one kernel pass. The words/lanes counters below make the
// packing observable: lanes counts probe masks settled, words counts
// 64-lane kernel evaluations, so lanes/words is the realized SWAR
// occupancy (64 = perfectly packed, 1 = nothing shared).
var (
	metProbeLanes   = obs.C("serve.check.probe.lanes")
	metProbeWords   = obs.C("serve.check.probe.words")
	metProbeFlushes = obs.C("serve.check.probe.flushes")
	metProbeShared  = obs.C("serve.check.probe.shared_requests")
)

// coalesceLanes flushes a probe group before its window closes once
// this many lanes (64 kernel words) are pending.
const coalesceLanes = 4096

type coalescer struct {
	window time.Duration

	mu     sync.Mutex
	groups map[string]*probeGroup
}

type probeGroup struct {
	prog    *network.Program
	masks   []uint64
	waiters []probeWait
	timer   *time.Timer
}

type probeWait struct {
	off, n int
	ch     chan []bool
}

func newCoalescer(window time.Duration) *coalescer {
	return &coalescer{window: window, groups: make(map[string]*probeGroup)}
}

// submit queues masks for evaluation against prog (grouped by the
// network's canonical key) and returns a channel that receives the
// per-mask sorted verdicts, in input order. The first submission for a
// key opens the coalescing window; the group flushes when the window
// closes or the pending lanes reach coalesceLanes, whichever is first.
func (co *coalescer) submit(key string, prog *network.Program, masks []uint64) <-chan []bool {
	ch := make(chan []bool, 1)
	co.mu.Lock()
	g := co.groups[key]
	if g == nil {
		g = &probeGroup{prog: prog}
		co.groups[key] = g
		g.timer = time.AfterFunc(co.window, func() { co.flush(key, g) })
	}
	g.waiters = append(g.waiters, probeWait{off: len(g.masks), n: len(masks), ch: ch})
	g.masks = append(g.masks, masks...)
	full := len(g.masks) >= coalesceLanes
	co.mu.Unlock()
	if full {
		co.flush(key, g)
	}
	return ch
}

// flush detaches the group (a racing timer/full flush finds it gone and
// returns), evaluates the packed lanes, and fans the verdicts back out
// to the waiting requests.
func (co *coalescer) flush(key string, g *probeGroup) {
	co.mu.Lock()
	if co.groups[key] != g {
		co.mu.Unlock()
		return
	}
	delete(co.groups, key)
	co.mu.Unlock()
	g.timer.Stop()

	sorted := evalProbes(g.prog, g.masks)
	metProbeLanes.Add(int64(len(g.masks)))
	metProbeWords.Add(int64((len(g.masks) + 63) / 64))
	metProbeFlushes.Inc()
	if len(g.waiters) > 1 {
		metProbeShared.Add(int64(len(g.waiters)))
	}
	for _, w := range g.waiters {
		w.ch <- sorted[w.off : w.off+w.n]
	}
}

// evalProbes packs the masks 64 per word — wire w of lane j carries bit
// w of masks[base+j] — runs the bit-sliced kernel once per word, and
// reads back which lanes came out sorted (no 1 above a 0 on any
// adjacent wire pair).
func evalProbes(prog *network.Program, masks []uint64) []bool {
	n := prog.Wires()
	out := make([]bool, len(masks))
	state := make([]uint64, n)
	for base := 0; base < len(masks); base += 64 {
		cnt := len(masks) - base
		if cnt > 64 {
			cnt = 64
		}
		for w := 0; w < n; w++ {
			state[w] = 0
		}
		for j := 0; j < cnt; j++ {
			m := masks[base+j]
			for w := 0; w < n; w++ {
				state[w] |= m >> uint(w) & 1 << uint(j)
			}
		}
		prog.EvalBits(state)
		var bad uint64
		for i := 0; i+1 < n; i++ {
			bad |= state[i] &^ state[i+1]
		}
		for j := 0; j < cnt; j++ {
			out[base+j] = bad>>uint(j)&1 == 0
		}
	}
	return out
}

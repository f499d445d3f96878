package dram

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"mtprefetch/internal/memreq"
)

// step advances the reference memory the way the controllers did before
// they paid per event: every channel on every call, retiring through a
// walk over one in-flight slice per channel behind a min-completion
// watermark, and scheduling by a four-way priority computed per entry.
// Several entries of one channel fall due together only when Step skips
// cycles; they retire in doneAt order, the order they were scheduled.
func (r *refModel) step(cycle uint64, done []*memreq.Request) []*memreq.Request {
	for i, ch := range r.m.chans {
		done = r.stepChannel(cycle, i, ch, done)
	}
	return done
}

func (r *refModel) stepChannel(cycle uint64, i int, ch *channel, done []*memreq.Request) []*memreq.Request {
	m := r.m
	inflight := r.inflight[i]
	if len(inflight) > 0 && r.minDone[i] <= cycle {
		newMin := ^uint64(0)
		var due []*entry
		for j := 0; j < len(inflight); {
			e := inflight[j]
			if e.doneAt > cycle {
				newMin = min(newMin, e.doneAt)
				j++
				continue
			}
			inflight[j] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
			due = append(due, e)
		}
		r.minDone[i] = newMin
		if len(due) > 1 {
			r.cov.multiDue++
		}
		slices.SortFunc(due, func(a, b *entry) int { return cmp.Compare(a.doneAt, b.doneAt) })
		for _, e := range due {
			if e.req.Kind != memreq.Writeback {
				ch.reads.Del(e.req.Addr)
				e.req.StampSpan(memreq.SpanDRAMDone, cycle)
				done = append(done, e.req)
			} else {
				m.pool.Put(e.req)
			}
			for _, mr := range e.merged {
				mr.StampSpan(memreq.SpanDRAMDone, cycle)
			}
			done = append(done, e.merged...)
			m.putEntry(e)
		}
	}
	r.inflight[i] = inflight
	if ch.queue.Len() == 0 || len(inflight) >= pipelineDepth {
		return done
	}
	best, bestPrio := -1, 4
	for j := 0; j < ch.queue.Len(); j++ {
		if p := r.prio(cycle, ch, ch.queue.At(j)); p < bestPrio {
			best, bestPrio = j, p
		}
		if bestPrio == 0 {
			break
		}
	}
	e := ch.queue.RemoveAt(best)
	e.req.StampSpan(memreq.SpanDRAMSched, cycle)
	m.service(cycle, ch, e)
	if len(inflight) == 0 || e.doneAt < r.minDone[i] {
		r.minDone[i] = e.doneAt
	}
	r.inflight[i] = append(inflight, e)
	return done
}

// prio ranks an entry for FR-FCFS with demand priority: lower is better.
func (r *refModel) prio(cycle uint64, ch *channel, e *entry) int {
	hit := ch.banks[e.bank].openRow == e.row
	demand := e.req.Kind == memreq.Demand
	if !demand && r.m.cfg.AgePromote > 0 && cycle-e.arrive > uint64(r.m.cfg.AgePromote) {
		demand = true
	}
	switch {
	case demand && hit:
		return 0
	case demand:
		return 1
	case hit:
		return 2
	default:
		return 3
	}
}

func (r *refModel) drained() bool {
	if len(r.pending) > 0 {
		return false
	}
	for i, ch := range r.m.chans {
		if ch.queue.Len() > 0 || len(r.inflight[i]) > 0 {
			return false
		}
	}
	return true
}

// FuzzRetireOrder holds the wake entries, the completion ring and the
// rank scan to the reference's per-cycle walk over random request
// streams: the same completion order on every Step, the same Stats and
// the same span stamps. gapped visits cycles up to 12 apart, so several
// entries of one ring fall due in one Step. The seed corpus runs with
// plain go test.
func FuzzRetireOrder(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed uint64, gapped bool) {
		rng := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
		sc := randomScenario(rng)
		if gapped {
			sc.maxGap = 12
		}
		if err := runParkScenario(sc, rng, &parkCoverage{}); err != nil {
			t.Fatalf("%+v: %v", sc, err)
		}
	})
}

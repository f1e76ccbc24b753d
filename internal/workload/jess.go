package workload

import (
	"repro/internal/heap"
	"repro/internal/vm"
)

// Jess models SPEC _202_jess, a RETE-style expert system: a static rule
// network, a working memory of facts that accumulates for the program's
// duration, and per-cycle match tokens that die with the inference
// cycle's frame. Tokens hold references to the (static) facts they
// matched, so without the §3.4 optimization they are dragged into the
// static set — the biggest optimizer delta in Fig 4.1 (35% -> 61%).
func Jess() Spec {
	return Spec{
		Name:    "jess",
		Desc:    "Expert System",
		Threads: single,
		HeapBytes: func(size int) int {
			return (24 + 13*size) << 10 // working memory accumulates with size
		},
		Run: runJess,
	}
}

const (
	jessRules         = 16
	jessSlotsPerFact  = 4
	jessFactsPerCycle = 30
	jessValueRange    = 9 // match probability 1/9 per (rule, fact) pair
)

func runJess(rt *vm.Runtime, size int) {
	h := rt.Heap
	ruleNode := h.DefineClass(heap.Class{Name: "jess.RuleNode", Refs: 2, Data: 8})
	fact := h.DefineClass(heap.Class{Name: "jess.Fact", Refs: 1, Data: 16})
	token := h.DefineClass(heap.Class{Name: "jess.Token", Refs: 2, Data: 8})
	activation := h.DefineClass(heap.Class{Name: "jess.Activation", Refs: 2, Data: 8})
	arr := h.DefineClass(heap.Class{Name: "jess.Object[]", IsArray: true})
	rng := newRNG("jess", size)

	th := rt.NewThread(2)
	main := th.Top()

	// Static rule network: chains of alpha/beta nodes.
	netSlot := rt.StaticSlot("jess.network")
	net := main.MustNewArray(arr, jessRules)
	main.PutStatic(netSlot, net)
	// Each rule tests a (slot, value) pattern — primitive rule data.
	type pattern struct{ slot, value int }
	patterns := make([]pattern, jessRules)
	for r := 0; r < jessRules; r++ {
		n1 := main.MustNew(ruleNode)
		n2 := main.MustNew(ruleNode)
		main.PutField(n1, 0, n2)
		main.PutField(net, r, n1)
		patterns[r] = pattern{slot: rng.Intn(jessSlotsPerFact), value: rng.Intn(jessValueRange)}
	}

	// Working memory: a static, growing list of facts.
	wmSlot := rt.StaticSlot("jess.wm")
	var wmHead heap.HandleID
	// factVals mirrors the primitive slot values of the facts this
	// cycle asserts, the only ones the match reads.
	var factVals [jessFactsPerCycle][jessSlotsPerFact]int

	snapSlot := rt.StaticSlot("jess.snapshot")
	cycles := 12 * size
	for cy := 0; cy < cycles; cy++ {
		if cy%3 == 0 {
			// An engine-state snapshot: published to a static slot for
			// the duration of checkpointing, then withdrawn, but kept
			// in the driver's root frame — the "less live" pattern the
			// §3.6 resetting pass recovers (Fig 4.11).
			snap := main.MustNew(activation)
			main.SetLocal(0, snap)
			main.PutStatic(snapSlot, snap)
			main.PutStatic(snapSlot, heap.Nil)
		}
		th.CallVoid(2, func(f *vm.Frame) {
			// Assert new facts into working memory (immortal).
			for i := range factVals {
				ft := f.MustNew(fact)
				if wmHead != heap.Nil {
					f.PutField(ft, 0, wmHead)
				}
				wmHead = ft
				f.PutStatic(wmSlot, wmHead)
				for s := range factVals[i] {
					factVals[i][s] = rng.Intn(jessValueRange)
				}
			}

			// Match: run every rule against the newly asserted facts
			// (the genuine RETE-ish join), emitting a Token per match.
			// Tokens reference their matched fact — static — and chain
			// to the previous token of the same rule (block size 2,
			// the dominant bucket of Fig 4.5 for jess).
			var agendaHead heap.HandleID
			matches := 0
			for r := 0; r < jessRules; r++ {
				var prevTok heap.HandleID
				for i := 0; i < jessFactsPerCycle; i++ {
					if factVals[i][patterns[r].slot] != patterns[r].value {
						continue
					}
					matches++
					// Half the tokens are built by a join helper and
					// returned (distance 1-2 deaths, the Fig 4.6
					// spread jess shows across frames 0-2).
					var tok heap.HandleID
					if matches%2 == 0 {
						tok = th.Call(1, func(g *vm.Frame) heap.HandleID {
							t := g.MustNew(token)
							g.SetLocal(0, t)
							return t
						})
					} else {
						tok = f.MustNew(token)
					}
					// About half the tokens hold a reference *to* the
					// (static) fact they matched — §3.4's target
					// pattern; the rest carry primitive bindings only.
					// This split is what leaves jess ~35% collectable
					// even without the optimization (Fig 4.1).
					if rng.Intn(5) < 2 {
						// Walk the WM list to the matched fact, as
						// RETE alpha memories do.
						wf := f.GetStatic(wmSlot)
						for k := 0; k < jessFactsPerCycle-1-i && wf != heap.Nil; k++ {
							wf = f.GetField(wf, 0)
						}
						if wf != heap.Nil {
							f.PutField(tok, 0, wf)
						}
					}
					if prevTok != heap.Nil && rng.Intn(3) == 0 {
						f.PutField(tok, 1, prevTok)
					}
					prevTok = tok
					f.SetLocal(0, tok)
				}
				// Fire at most one activation per rule per cycle; a
				// fraction are retained on the (static) agenda.
				if prevTok != heap.Nil && rng.Intn(4) == 0 {
					act := f.MustNew(activation)
					f.PutField(act, 0, prevTok)
					if agendaHead != heap.Nil {
						f.PutField(act, 1, agendaHead)
					}
					agendaHead = act
				}
			}
			if agendaHead != heap.Nil && rng.Intn(3) == 0 {
				// Occasionally the agenda escapes to working memory.
				f.PutStatic(rt.StaticSlot("jess.agenda"), agendaHead)
			}
			// Periodically, the conflict-resolution slot holds the
			// cycle's agenda only transiently: "a static object touches
			// another object and then points away" — the pattern §4.7's
			// resetting pass recovers (the agenda stays live via this
			// frame's local).
			if agendaHead != heap.Nil && cy%4 == 0 {
				slot := rt.StaticSlot("jess.conflictSet")
				f.PutStatic(slot, agendaHead)
				f.PutStatic(slot, heap.Nil)
			}
			f.SetLocal(1, agendaHead)
			_ = matches
		})
	}
}

package experiments_test

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/results"
)

// countingBackend records the key list of every batch it is handed and
// serves cells it has already seen from memory, so the many figure
// lists below cost one computation per distinct cell of the grid.
type countingBackend struct {
	next    results.Backend
	memo    map[string]results.Outcome
	batches [][]string
}

func (b *countingBackend) Run(jobs []engine.Job, emit func(int, results.Outcome)) error {
	keys := make([]string, len(jobs))
	var missing []engine.Job
	for i, job := range jobs {
		key, err := results.Key(job)
		if err != nil {
			return err
		}
		keys[i] = key
		if _, ok := b.memo[key]; !ok {
			missing = append(missing, job)
		}
	}
	b.batches = append(b.batches, keys)
	if len(missing) > 0 {
		err := b.next.Run(missing, func(_ int, o results.Outcome) {
			key, _ := results.Key(o.Job)
			b.memo[key] = o
		})
		if err != nil {
			return err
		}
	}
	for i, key := range keys {
		emit(i, b.memo[key])
	}
	return nil
}

// firstOccurrence is the plan's contract, computed the slow way: the
// distinct keys of the figures' jobs in the order they first appear.
func firstOccurrence(t *testing.T, figs []experiments.SweepFig) []string {
	t.Helper()
	var keys []string
	for _, f := range figs {
		for _, job := range f.Jobs {
			key, err := results.Key(job)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(keys, key) {
				keys = append(keys, key)
			}
		}
	}
	return keys
}

// goldenBlocks cuts the benchmark's committed capture of the default
// sweep into its per-figure blocks, by figure id, so the expected bytes
// of any figure list can be assembled from it.
func goldenBlocks(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../../bench/golden/sweep_default.txt")
	if err != nil {
		t.Fatal(err)
	}
	all, err := experiments.DemographicFigs()
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n\n")
	if len(blocks) != len(all) {
		t.Fatalf("default sweep golden has %d figure blocks, want %d", len(blocks), len(all))
	}
	byID := make(map[string]string, len(all))
	for i, f := range all {
		if !strings.HasPrefix(blocks[i], "Fig "+f.ID+":") {
			t.Fatalf("golden block %d does not open Fig %s", i, f.ID)
		}
		byID[f.ID] = blocks[i]
	}
	return byID
}

// orderedSublists returns every non-empty subset of ids in every order.
func orderedSublists(ids []string) [][]string {
	var out [][]string
	var grow func(prefix []string, rest []string)
	grow = func(prefix, rest []string) {
		for i, id := range rest {
			list := append(slices.Clone(prefix), id)
			out = append(out, list)
			grow(list, slices.Delete(slices.Clone(rest), i, i+1))
		}
	}
	grow(nil, ids)
	return out
}

// TestPlanRunsEachDistinctCellOnce is the plan's contract, from outside:
// whatever figures are asked for, in whatever order, the backend is
// handed one batch holding each distinct cell once, in first-occurrence
// order, and the rendered bytes are the committed golden's. The full
// grid runs first, for real, on a one-worker engine, which also pins
// what the engine's tape admission rule makes of it: 104 figure cells
// are 40 computations over 24 (workload, size) rows, the seven rows
// shorter than the rule's op limit record (compress and mpegaudio at
// every size, javac at size 1), the other 17 decline, and only size-1
// rows have further cells — three collectors each — so the three
// recorded ones earn two replays apiece.
func TestPlanRunsEachDistinctCellOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("the full grid has size-100 cells")
	}
	all, err := experiments.DemographicFigs()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, f := range all {
		ids = append(ids, f.ID)
	}
	lists := [][]string{ids, {"4.4", "4.4"}, {"4.4", "4.9", "A.4"}, {"4.1", "4.5", "4.11"}}
	// A seeded sample of three-figure lists, each in every subset and
	// every order.
	rng := rand.New(rand.NewSource(12))
	for n := 0; n < 4; n++ {
		perm := rng.Perm(len(ids))
		lists = append(lists, orderedSublists([]string{ids[perm[0]], ids[perm[1]], ids[perm[2]]})...)
	}

	prog := &obs.Progress{}
	memo := make(map[string]results.Outcome)
	local := results.Local{Eng: engine.New(1).SetProgress(prog), Obs: prog}
	blocks := goldenBlocks(t)
	for n, list := range lists {
		name := strings.Join(list, ",")
		figs, err := experiments.DemographicFigs(list...)
		if err != nil {
			t.Fatal(err)
		}
		b := &countingBackend{next: local, memo: memo}
		var out strings.Builder
		if err := experiments.Sweep(b, figs, &out); err != nil {
			t.Fatalf("-figs %s: %v", name, err)
		}
		if len(b.batches) != 1 {
			t.Fatalf("-figs %s: backend saw %d batches, want 1", name, len(b.batches))
		}
		if want := firstOccurrence(t, figs); !slices.Equal(b.batches[0], want) {
			t.Errorf("-figs %s: backend was handed\n%s\nwant each distinct key once, in first-occurrence order:\n%s",
				name, strings.Join(b.batches[0], "\n"), strings.Join(want, "\n"))
		}
		var want []string
		for _, id := range list {
			want = append(want, blocks[id])
		}
		if got := out.String(); got != strings.Join(want, "\n\n")+"\n" {
			t.Errorf("-figs %s: output differs from the golden's blocks:\n%s", name, got)
		}
		if n > 0 {
			continue
		}
		if got := len(b.batches[0]); got != 40 {
			t.Errorf("full grid: %d distinct cells, want 40", got)
		}
		s := prog.Snapshot()
		if s.CellsComputed != 40 || s.TapesRecorded != 7 || s.TapesDeclined != 17 || s.TapeReplays != 6 {
			t.Errorf("full grid on one worker: %d cells computed, %d tapes recorded, %d declined, %d replays; want 40, 7, 17, 6",
				s.CellsComputed, s.TapesRecorded, s.TapesDeclined, s.TapeReplays)
		}
	}
	if got := prog.Snapshot().CellsComputed; got != 40 {
		t.Errorf("%d figure lists computed %d cells between them, want the grid's 40", len(lists), got)
	}
}

// writeLog records each Write as its own entry: the sequence, not just
// the concatenation, is what a streaming consumer (the server's one
// event per Write) observes.
type writeLog []string

func (w *writeLog) Write(p []byte) (int, error) {
	*w = append(*w, string(p))
	return len(p), nil
}

// reversed completes every cell before emitting any, last cell first —
// the Backend contract still has it emit in index order.
type reversed struct{ next results.Backend }

func (r reversed) Run(jobs []engine.Job, emit func(int, results.Outcome)) error {
	outs := make([]results.Outcome, len(jobs))
	if err := r.next.Run(jobs, func(i int, o results.Outcome) { outs[i] = o }); err != nil {
		return err
	}
	ord := results.NewReorder(len(jobs), emit)
	for i := len(outs) - 1; i >= 0; i-- {
		ord.Add(i, outs[i])
	}
	return ord.Finish()
}

// TestSweepWritesInFigureOrderWhateverCompletesFirst pins the rendering
// half of the determinism argument: the writer sees the same sequence of
// writes — title, header, rule, rows, separator, figure by figure —
// whether cells complete in order or the last one first, and figures
// whose cells all arrived with an earlier figure's (4.5 after 4.1)
// still wait their turn.
func TestSweepWritesInFigureOrderWhateverCompletesFirst(t *testing.T) {
	local := results.Local{Eng: engine.New(2)}
	var inOrder, lastFirst writeLog
	if err := experiments.Sweep(local, sweepFigs(t), &inOrder); err != nil {
		t.Fatal(err)
	}
	if err := experiments.Sweep(reversed{local}, sweepFigs(t), &lastFirst); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(inOrder, lastFirst) {
		t.Errorf("reversed completion changed the write sequence:\n%q\nwant\n%q", lastFirst, inOrder)
	}
	// 3 figures x (title, header, rule, 8 rows) + 2 separators.
	if len(inOrder) != 3*11+2 {
		t.Errorf("sweep made %d writes, want %d", len(inOrder), 3*11+2)
	}
}

// failing fails one cell of whatever batch it is handed.
type failing struct {
	next results.Backend
	key  string
}

func (f failing) Run(jobs []engine.Job, emit func(int, results.Outcome)) error {
	return f.next.Run(jobs, func(i int, o results.Outcome) {
		if key, _ := results.Key(o.Job); key == f.key {
			o = results.Outcome{Job: o.Job, Err: "boom"}
		}
		emit(i, o)
	})
}

// TestSweepSharedCellFailureFailsFirstUser: a cell several figures
// share fails the first of them — with the error an unplanned sweep
// gave, after the figures before it rendered in full and its own rows
// up to the failing one — and nothing after it renders.
func TestSweepSharedCellFailureFailsFirstUser(t *testing.T) {
	figs, err := experiments.DemographicFigs("4.11", "4.2", "4.5", "A.1")
	if err != nil {
		t.Fatal(err)
	}
	shared := figs[1].Jobs[1] // db/1 under cg: row 1 of 4.2, 4.5 and A.1
	key, err := results.Key(shared)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = experiments.Sweep(failing{results.Local{Eng: engine.New(2)}, key}, figs, &out)
	want := fmt.Sprintf("sweep 4.2: results: %s/%d under %s: boom", shared.Workload, shared.Size, shared.Collector)
	if err == nil || err.Error() != want {
		t.Fatalf("sweep error = %v, want %q", err, want)
	}
	blocks := goldenBlocks(t)
	fig42 := strings.SplitAfter(blocks["4.2"], "\n")
	wantOut := blocks["4.11"] + "\n\n" + strings.Join(fig42[:4], "") // title, header, rule, compress
	if out.String() != wantOut {
		t.Errorf("failed sweep rendered\n%s\nwant\n%s", out.String(), wantOut)
	}
}

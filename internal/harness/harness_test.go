package harness

import (
	"strings"
	"testing"
	"time"
)

// The six figure tests call t.Parallel: each builds its own simulator and
// they share only the read-only sweep tables (RequestSizes, ...), so the
// figures stay bit-identical while the long tests overlap.

// fastOpts keeps harness tests quick: less data per run than the
// defaults, but enough requests at every d for steady-state behaviour.
func fastOpts() Options {
	return Options{TotalBytes: 8 << 20, IODs: 4, Seed: 1}
}

func values(s Series) []time.Duration {
	out := make([]time.Duration, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Value
	}
	return out
}

func findSeries(t *testing.T, fig Figure, prefix string) Series {
	t.Helper()
	for _, s := range fig.Series {
		if strings.HasPrefix(s.Label, prefix) {
			return s
		}
	}
	t.Fatalf("figure %s: no series with prefix %q", fig.ID, prefix)
	return Series{}
}

func TestFigure4Shapes(t *testing.T) {
	t.Parallel()
	figs, err := Figure4(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("got %d figures", len(figs))
	}
	reads, writes := figs[0], figs[1]

	// 4(a): caching overhead small — within 30% of no-caching everywhere.
	cach := values(findSeries(t, reads, "Caching"))
	none := values(findSeries(t, reads, "No Caching"))
	for i := range cach {
		ratio := float64(cach[i]) / float64(none[i])
		if ratio > 1.30 {
			t.Errorf("4a point %d: overhead ratio %.2f", i, ratio)
		}
	}
	// 4(b): caching wins for writes at small/medium d.
	cw := values(findSeries(t, writes, "Caching"))
	nw := values(findSeries(t, writes, "No Caching"))
	for i := 0; i < 3; i++ {
		if cw[i] >= nw[i] {
			t.Errorf("4b point %d: caching %v !< no-caching %v", i, cw[i], nw[i])
		}
	}
}

func TestFigure5Shapes(t *testing.T) {
	t.Parallel()
	figs, err := Figure5(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range figs {
		cach := values(findSeries(t, fig, "Caching"))
		none := values(findSeries(t, fig, "No Caching"))
		for i := range cach {
			if cach[i] >= none[i] {
				t.Errorf("%s point %d: caching %v !< no-caching %v", fig.ID, i, cach[i], none[i])
			}
		}
		// Hit ratio must be high at l=1.
		pts := findSeries(t, fig, "Caching").Points
		last := pts[len(pts)-1]
		if fig.ID == "5a" && last.Hits < last.Misses {
			t.Errorf("5a: hits %d < misses %d at l=1", last.Hits, last.Misses)
		}
	}
}

func TestFigure6Shapes(t *testing.T) {
	t.Parallel()
	figs, err := Figure6(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("got %d panels", len(figs))
	}
	for _, fig := range figs {
		none := values(findSeries(t, fig, "No Caching"))
		s100 := values(findSeries(t, fig, "Caching(100% sharing)"))
		s25 := values(findSeries(t, fig, "Caching(25% sharing)"))
		wins100, wins25, order := 0, 0, 0
		for i := range none {
			if s100[i] < none[i] {
				wins100++
			}
			if s25[i] < none[i] {
				wins25++
			}
			// With locality in play the sharing series converge (the
			// paper's 6(b)/(c) lines nearly coincide); allow 5% slack.
			if float64(s100[i]) <= 1.05*float64(s25[i]) {
				order++
			}
			// Even where 25%% sharing loses (small d, where the paper's own
			// curves cluster), it must stay within 10%% of the baseline.
			if float64(s25[i]) > 1.10*float64(none[i]) {
				t.Errorf("%s point %d: s=25%%%% %v more than 10%%%% above baseline %v",
					fig.ID, i, s25[i], none[i])
			}
		}
		// "caching does better than original PVFS for nearly all non-zero
		// percentages of data sharing": full sharing wins almost everywhere,
		// low sharing wins at a majority of the mid/large sizes.
		if wins100 < len(none)-1 {
			t.Errorf("%s: 100%% sharing beats baseline at only %d/%d points", fig.ID, wins100, len(none))
		}
		if wins25 < 3 {
			t.Errorf("%s: 25%% sharing beats baseline at only %d/%d points", fig.ID, wins25, len(none))
		}
		// More sharing should not hurt: 100% <= 25% (within slack) at most
		// points.
		if order < len(none)-1 {
			t.Errorf("%s: s=100%% <= s=25%% at only %d/%d points", fig.ID, order, len(none))
		}
	}
}

func TestFigure7Shapes(t *testing.T) {
	t.Parallel()
	figs, err := Figure7(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Same qualitative checks as Figure 6 at p=2, plus the paper's claim
	// that benefits are more significant at larger p (checked loosely at
	// l=1: relative caching gain for p=4 >= for p=2).
	fig := figs[2] // l=1 panel
	none := values(findSeries(t, fig, "No Caching"))
	s100 := values(findSeries(t, fig, "Caching(100% sharing)"))
	for i := range none {
		if s100[i] >= none[i] {
			t.Errorf("7c point %d: caching %v !< baseline %v", i, s100[i], none[i])
		}
	}
}

func TestFigure8Crossover(t *testing.T) {
	t.Parallel()
	figs, err := Figure8(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	l0, l1 := figs[0], figs[2]

	// l=0: spreading beats cached co-location (parallelism wins)...
	spread0 := values(findSeries(t, l0, "No Caching (2 apps on different nodes"))
	coloc0 := values(findSeries(t, l0, "Caching(25% sharing)"))
	same0 := values(findSeries(t, l0, "No Caching (2 apps on same"))
	w := 0
	var spreadSum, colocSum time.Duration
	for i := range spread0 {
		if spread0[i] < coloc0[i] {
			w++
		}
		spreadSum += spread0[i]
		colocSum += coloc0[i]
	}
	if w < 4 {
		t.Errorf("8a: spread beats cached co-location at only %d/%d points", w, len(spread0))
	}
	if spreadSum >= colocSum {
		t.Errorf("8a: spread total %v not below cached co-location total %v", spreadSum, colocSum)
	}
	// ...but caching still beats no-caching on the same nodes at the
	// mid/large sizes where there is network to save.
	w = 0
	for i := 2; i < len(same0); i++ {
		if coloc0[i] < same0[i] {
			w++
		}
	}
	if w < len(same0)-3 {
		t.Errorf("8a: cached co-location beats uncached co-location at only %d/%d mid/large points", w, len(same0)-2)
	}

	// l=1: cached co-location beats even the spread placement.
	spread1 := values(findSeries(t, l1, "No Caching (2 apps on different nodes"))
	coloc1 := values(findSeries(t, l1, "Caching(100% sharing)"))
	for i := range spread1 {
		if coloc1[i] >= spread1[i] {
			t.Errorf("8c point %d: cached co-location %v !< spread %v", i, coloc1[i], spread1[i])
		}
	}
}

func TestAblations(t *testing.T) {
	t.Parallel()
	o := fastOpts()
	ev, err := AblationEviction(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Series) != 2 {
		t.Fatalf("eviction ablation series = %d", len(ev.Series))
	}
	// Policies should be within 25% of each other (approximate LRU loses
	// little).
	clock := values(ev.Series[0])
	lru := values(ev.Series[1])
	for i := range clock {
		r := float64(clock[i]) / float64(lru[i])
		if r > 1.25 || r < 0.75 {
			t.Errorf("eviction ablation point %d: ratio %.2f", i, r)
		}
	}

	fp, err := AblationFlushPeriod(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Series) != 3 {
		t.Fatalf("flush ablation series = %d", len(fp.Series))
	}

	wm, err := AblationWatermarks(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(wm.Series) != 3 {
		t.Fatalf("watermark ablation series = %d", len(wm.Series))
	}
}

func TestRender(t *testing.T) {
	fig := Figure{
		ID:     "x",
		Title:  "Test figure",
		YLabel: "time",
		Series: []Series{
			{Label: "A", Points: []Point{{RequestSize: 1024, Value: 1500 * time.Microsecond}}},
			{Label: "Longer label", Points: []Point{{RequestSize: 1024, Value: 2 * time.Second}}},
		},
		Notes: "a note",
	}
	out := Render(fig)
	for _, want := range []string{"Test figure", "1KB", "1.50ms", "2.000s", "a note", "Longer label"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderAllSorted(t *testing.T) {
	figs := []Figure{{ID: "b", Title: "B"}, {ID: "a", Title: "A"}}
	out := RenderAll(figs)
	if strings.Index(out, "A") > strings.Index(out, "B") {
		t.Error("figures not sorted by ID")
	}
}

func TestSizeLabels(t *testing.T) {
	cases := map[int64]string{
		1 << 10: "1KB",
		1 << 20: "1MB",
		500:     "500B",
	}
	for d, want := range cases {
		if got := sizeLabel(d); got != want {
			t.Errorf("sizeLabel(%d) = %q, want %q", d, got, want)
		}
	}
}

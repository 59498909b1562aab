package experiments

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestRegistryIntegrity(t *testing.T) {
	rs := Runners()
	if len(rs) != len(registry) || len(rs) == 0 {
		t.Fatalf("Runners() returned %d of %d experiments", len(rs), len(registry))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if r.ID == "" || r.Description == "" || r.Run == nil {
			t.Errorf("incomplete runner %+v", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate id %q", r.ID)
		}
		seen[r.ID] = true
	}
	if _, ok := Lookup("fig5"); !ok {
		t.Error("Lookup(fig5) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) should fail")
	}
}

func TestParseFidelity(t *testing.T) {
	for s, want := range map[string]Fidelity{
		"quick": Quick, "q": Quick, "standard": Standard, "std": Standard,
		"full": Full, "F": Full,
	} {
		got, err := ParseFidelity(s)
		if err != nil || got != want {
			t.Errorf("ParseFidelity(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFidelity("bogus"); err == nil {
		t.Error("bogus fidelity should fail")
	}
	// The exact names, in constant order: the -fidelity flag and the table
	// notes spell them.
	golden := []string{"quick", "standard", "full"}
	for i, want := range golden {
		if got := Fidelity(i).String(); got != want {
			t.Errorf("Fidelity(%d) = %q, want %q", i, got, want)
		}
	}
	if got := Fidelity(len(golden)).String(); got != "Fidelity(3)" {
		t.Errorf("out-of-table String() = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	tab.AddRow(1, 0.5)
	tab.AddRow(1e-9, 12345678)
	tab.Note("note %d", 7)
	var txt, csv strings.Builder
	if err := tab.Fprint(&txt); err != nil {
		t.Fatal(err)
	}
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"demo", "a", "b", "note 7", "1.000e-09"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, txt.String())
		}
		if !strings.Contains(csv.String(), want) && want != "demo" {
			if !strings.Contains(csv.String(), want) {
				t.Errorf("csv output missing %q:\n%s", want, csv.String())
			}
		}
	}
	if !strings.Contains(csv.String(), "a,b") {
		t.Errorf("csv header malformed:\n%s", csv.String())
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	tab.AddRow(1, 0.5)
	tab.Note("hello")
	var sb strings.Builder
	if err := tab.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"## x — demo", "| a | b |", "| --- | --- |", "| 1 | 0.5 |", "*hello*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestTableAddRowWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched row width should panic")
		}
	}()
	tab := &Table{ID: "x", Columns: []string{"a", "b"}}
	tab.AddRow(1)
}

func TestFormatCell(t *testing.T) {
	cases := map[float64]string{
		3:        "3",
		0.25:     "0.25",
		1e-9:     "1.000e-09",
		12345678: "1.235e+07",
	}
	for v, want := range cases {
		if got := formatCell(v); got != want {
			t.Errorf("formatCell(%v) = %q, want %q", v, got, want)
		}
	}
	if formatCell(math.NaN()) != "NaN" {
		t.Error("NaN formatting")
	}
}

// The pure-theory runners draw no random numbers, so their Quick tables —
// a grid TestGoldenTheoryTables does not pin — must hold data and come out
// byte-identical whatever the seed.
func TestTheoryOnlyExperiments(t *testing.T) {
	for _, id := range []string{"fig6", "fig9", "regimes", "abl-theory"} {
		r, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		var csv [2]strings.Builder
		for i, seed := range []uint64{1, 7} {
			tables, err := r.Run(Quick, seed)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tables) == 0 || len(tables[0].Rows) == 0 {
				t.Fatalf("%s produced no data", id)
			}
			for _, tab := range tables {
				if err := tab.WriteCSV(&csv[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if csv[0].String() != csv[1].String() {
			t.Errorf("%s: Quick tables differ between seeds 1 and 7", id)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	r, _ := Lookup("fig6")
	tables, err := r.Run(Standard, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	// p_ce must be non-decreasing in Tm for each configuration and always
	// at or below pq = 1e-3.
	for col := 1; col < len(tab.Columns); col++ {
		prev := 0.0
		for _, row := range tab.Rows {
			v := row[col]
			if math.IsNaN(v) {
				continue
			}
			if v > 1.001e-3 {
				t.Errorf("col %d: pce %v exceeds pq", col, v)
			}
			if v < prev*(1-1e-9) {
				t.Errorf("col %d: pce not monotone in Tm (%v after %v)", col, v, prev)
			}
			prev = v
		}
	}
}

func TestFig9Shape(t *testing.T) {
	r, _ := Lookup("fig9")
	tables, err := r.Run(Standard, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	// At small Tc (first data column) pf must fall sharply as Tm grows.
	first := tab.Rows[0][1]
	last := tab.Rows[len(tab.Rows)-1][1]
	if last >= first/10 {
		t.Errorf("memory should slash pf at small Tc: %v -> %v", first, last)
	}
	// Large Tc (repair regime) is safe regardless of memory.
	lastCol := len(tab.Columns) - 1
	for _, row := range tab.Rows {
		if row[lastCol] > 1e-3 {
			t.Errorf("repair regime pf %v too high at Tm/ThTilde=%v", row[lastCol], row[0])
		}
	}
}

// sweep's contract: rows land in point order whatever the pool's worker
// count, a nil row is left out, and the first error comes back with no row
// added.
func TestSweep(t *testing.T) {
	points := make([]int, 40)
	for i := range points {
		points[i] = 100 + i
	}
	for _, workers := range []int{1, 2, 7} {
		prev := runtime.GOMAXPROCS(workers)
		tab := &Table{ID: "sweep", Columns: []string{"i", "p"}}
		err := sweep(tab, points, func(i, p int) ([]float64, error) {
			if i%5 == 3 {
				return nil, nil
			}
			return []float64{float64(i), float64(p)}, nil
		})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 32 {
			t.Fatalf("workers=%d: %d rows, want 32 (8 nil rows skipped)", workers, len(tab.Rows))
		}
		last := -1.0
		for _, r := range tab.Rows {
			if r[0] <= last || int(r[0])%5 == 3 || r[1] != r[0]+100 {
				t.Fatalf("workers=%d: row %v out of point order or not its point's", workers, r)
			}
			last = r[0]
		}
	}

	boom := errors.New("boom")
	tab := &Table{Columns: []string{"i"}}
	err := sweep(tab, points, func(i, _ int) ([]float64, error) {
		if i == 17 {
			return nil, boom
		}
		return []float64{float64(i)}, nil
	})
	if !errors.Is(err, boom) || len(tab.Rows) != 0 {
		t.Errorf("failing sweep: err %v, %d rows; want boom and no rows", err, len(tab.Rows))
	}
}

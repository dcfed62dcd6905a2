package exact

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/tree"
)

// codeColumn describes how one numeric attribute's codes are drawn.
type codeColumn int

const (
	colDense  codeColumn = iota // codes in [0, 100)
	colDups                     // a handful of distinct codes, heavily repeated
	colSingle                   // one code for every record
	colSparse                   // scattered codes up to 65535
)

// codeTable is a random bin-coded table in both forms: code rows for
// BuildCodeSubtree and the same records widened to float64 for BuildSubtree.
type codeTable struct {
	schema *dataset.Schema
	codes  CodeRows
	wide   *dataset.Table
}

// genCodeTable draws n records over the given numeric column kinds plus
// cats categorical attributes (cardinalities 2..20, so both the exhaustive
// and the greedy subset search run), nc classes. Labels follow the first
// attributes' codes with 20% noise so the trees have real structure.
func genCodeTable(rng *rand.Rand, n, nc int, cols []codeColumn, cats int) *codeTable {
	schema := &dataset.Schema{}
	for i := 0; i < nc; i++ {
		schema.Classes = append(schema.Classes, fmt.Sprintf("c%d", i))
	}
	type attrGen func() uint16
	var gens []attrGen
	for i, kind := range cols {
		schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: fmt.Sprintf("n%d", i), Kind: dataset.Numeric})
		switch kind {
		case colDense:
			gens = append(gens, func() uint16 { return uint16(rng.Intn(100)) })
		case colDups:
			vals := make([]uint16, 1+rng.Intn(4))
			for j := range vals {
				vals[j] = uint16(rng.Intn(1000))
			}
			gens = append(gens, func() uint16 { return vals[rng.Intn(len(vals))] })
		case colSingle:
			v := uint16(rng.Intn(65536))
			gens = append(gens, func() uint16 { return v })
		case colSparse:
			gens = append(gens, func() uint16 {
				if rng.Intn(8) == 0 {
					return 65535
				}
				return uint16(rng.Intn(65536))
			})
		}
	}
	for i := 0; i < cats; i++ {
		card := 2 + rng.Intn(19)
		values := make([]string, card)
		for v := range values {
			values[v] = fmt.Sprintf("v%d", v)
		}
		schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: fmt.Sprintf("c%d", i), Kind: dataset.Categorical, Values: values})
		gens = append(gens, func() uint16 { return uint16(rng.Intn(card)) })
	}
	ct := &codeTable{schema: schema, wide: dataset.MustNew(schema)}
	codes := make([]uint16, len(gens))
	vals := make([]float64, len(gens))
	for r := 0; r < n; r++ {
		sum := 0
		for a, g := range gens {
			codes[a] = g()
			vals[a] = float64(codes[a])
			if a < 2 {
				sum += int(codes[a]) / 7
			}
		}
		label := sum % nc
		if rng.Intn(5) == 0 {
			label = rng.Intn(nc)
		}
		ct.codes.Add(codes, label)
		ct.wide.Append(vals, label)
	}
	return ct
}

// checkCodeSubtree requires BuildCodeSubtree to return exactly the tree
// BuildSubtree builds over the widened rows.
func checkCodeSubtree(t *testing.T, ct *codeTable, cfg Config) {
	t.Helper()
	want := BuildSubtree(tableRows{ct.wide}, ct.schema, cfg)
	got := BuildCodeSubtree(&ct.codes, ct.schema, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("code finisher diverges (cfg %+v):\n got %s\nwant %s",
			cfg, (&tree.Tree{Root: got, Schema: ct.schema}).String(), (&tree.Tree{Root: want, Schema: ct.schema}).String())
	}
}

func TestCodeSubtreeMatchesFloat(t *testing.T) {
	def := DefaultConfig()
	for _, tc := range []struct {
		name string
		n    int
		nc   int
		cols []codeColumn
		cats int
		cfg  func(Config) Config
	}{
		{name: "dense", n: 2000, nc: 2, cols: []codeColumn{colDense, colDense, colDense}},
		{name: "duplicates", n: 1500, nc: 3, cols: []codeColumn{colDups, colDups, colDense}},
		{name: "single-valued", n: 500, nc: 2, cols: []codeColumn{colSingle, colDense, colSingle}},
		{name: "all-single", n: 300, nc: 2, cols: []codeColumn{colSingle, colSingle}},
		{name: "categorical", n: 2000, nc: 3, cols: []codeColumn{colDense}, cats: 3},
		{name: "categorical-only", n: 1000, nc: 2, cats: 2},
		{name: "sparse", n: 2000, nc: 4, cols: []codeColumn{colSparse, colSparse, colDups}},
		{name: "allowed", n: 1500, nc: 2, cols: []codeColumn{colDense, colDense, colSparse}, cats: 1,
			cfg: func(c Config) Config { c.AllowedAttrs = []bool{false, true, true, false}; return c }},
		{name: "max-depth", n: 1500, nc: 3, cols: []codeColumn{colDense, colSparse}, cats: 1,
			cfg: func(c Config) Config { c.MaxDepth = 3; return c }},
		{name: "purity-stop", n: 1500, nc: 2, cols: []codeColumn{colDense, colDups}, cats: 1,
			cfg: func(c Config) Config { c.PurityStop = 0.85; return c }},
		{name: "min-split", n: 1500, nc: 2, cols: []codeColumn{colDense, colDense},
			cfg: func(c Config) Config { c.MinSplitRecords = 50; c.MinGiniGain = 0; return c }},
		{name: "empty", n: 0, nc: 2, cols: []codeColumn{colDense}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := def
			if tc.cfg != nil {
				cfg = tc.cfg(cfg)
			}
			checkCodeSubtree(t, genCodeTable(rand.New(rand.NewSource(int64(len(tc.name)))), tc.n, tc.nc, tc.cols, tc.cats), cfg)
		})
	}
}

// FuzzCodeSubtree draws random code tables — column kinds, categorical
// attributes, class count and stopping rules all from the input — and
// requires the code finisher to match BuildSubtree on the widened rows.
func FuzzCodeSubtree(f *testing.F) {
	f.Add(int64(1), uint16(500), uint8(0))
	f.Add(int64(2), uint16(3000), uint8(0xff))
	f.Add(int64(3), uint16(1), uint8(0x5a))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, knobs uint8) {
		rng := rand.New(rand.NewSource(seed))
		cols := make([]codeColumn, rng.Intn(5))
		for i := range cols {
			cols[i] = codeColumn(rng.Intn(4))
		}
		cats := rng.Intn(3)
		if len(cols)+cats == 0 {
			cols = append(cols, colDense)
		}
		ct := genCodeTable(rng, int(n%4000), 2+rng.Intn(3), cols, cats)
		cfg := DefaultConfig()
		if knobs&1 != 0 {
			cfg.AllowedAttrs = make([]bool, len(ct.schema.Attrs))
			for a := range cfg.AllowedAttrs {
				cfg.AllowedAttrs[a] = rng.Intn(2) == 0
			}
		}
		if knobs&2 != 0 {
			cfg.MaxDepth = rng.Intn(6)
		}
		if knobs&4 != 0 {
			cfg.PurityStop = 0.5 + rng.Float64()/2
		}
		if knobs&8 != 0 {
			cfg.MinSplitRecords = 1 + rng.Intn(100)
		}
		if knobs&16 != 0 {
			cfg.MinGiniGain = 0
		}
		checkCodeSubtree(t, ct, cfg)
	})
}

// TestCodeSubtreeConcurrent runs finishers side by side, as parallel collect
// does: the pooled counting scratch must never be shared between them.
func TestCodeSubtreeConcurrent(t *testing.T) {
	tables := make([]*codeTable, 6)
	want := make([]*tree.Node, len(tables))
	for i := range tables {
		tables[i] = genCodeTable(rand.New(rand.NewSource(int64(i))), 800, 2+i%3,
			[]codeColumn{colDense, colSparse, colDups}, i%2)
		want[i] = BuildSubtree(tableRows{tables[i].wide}, tables[i].schema, DefaultConfig())
	}
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				if got := BuildCodeSubtree(&tables[i].codes, tables[i].schema, DefaultConfig()); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("table %d: concurrent finisher diverges", i)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestCodeRowsBuffer(t *testing.T) {
	var a, b CodeRows
	a.Add([]uint16{1, 2, 3}, 0)
	b.Add([]uint16{4, 5, 6}, 1)
	b.Add([]uint16{7, 8, 9}, 2)
	a.AppendFrom(&b)
	if a.Len() != 3 || a.Label(0) != 0 || a.Label(2) != 2 {
		t.Fatalf("len %d labels %d %d", a.Len(), a.Label(0), a.Label(2))
	}
	if want := int64(3*3*2 + 3*4); a.Bytes() != want {
		t.Errorf("Bytes() = %d, want %d", a.Bytes(), want)
	}
	a.Reset()
	if a.Len() != 0 || a.Bytes() != 0 {
		t.Errorf("after Reset: len %d bytes %d", a.Len(), a.Bytes())
	}
}

package exact

import (
	"slices"
	"sync"

	"cmpdt/internal/dataset"
	"cmpdt/internal/gini"
	"cmpdt/internal/tree"
)

// CodeRows buffers bin-coded records for BuildCodeSubtree: each record's
// codes, one uint16 per schema attribute, stored back to back, and its label
// alongside. Numeric codes are ordered like the values they stand for;
// categorical codes are the category index. The zero value is empty.
type CodeRows struct {
	codes  []uint16
	labels []int32
}

// Add appends one record.
func (r *CodeRows) Add(codes []uint16, label int) {
	r.codes = append(r.codes, codes...)
	r.labels = append(r.labels, int32(label))
}

// AppendFrom appends every record of o, preserving o's order.
func (r *CodeRows) AppendFrom(o *CodeRows) {
	r.codes = append(r.codes, o.codes...)
	r.labels = append(r.labels, o.labels...)
}

// Len returns the number of buffered records.
func (r *CodeRows) Len() int { return len(r.labels) }

// Label returns record i's class label.
func (r *CodeRows) Label(i int) int { return int(r.labels[i]) }

// Bytes returns the buffered footprint: 2 bytes per code plus 4 per label.
func (r *CodeRows) Bytes() int64 { return 2*int64(len(r.codes)) + 4*int64(len(r.labels)) }

// Reset empties the buffer and releases its storage.
func (r *CodeRows) Reset() { *r = CodeRows{} }

// BuildCodeSubtree is BuildSubtree over code rows: it returns the tree
// BuildSubtree builds over the same rows with every code widened to float64,
// thresholds included (midpoints between adjacent codes). Instead of sorting
// each numeric attribute at every node, it counts the node's codes into a
// code×class histogram and sorts only the distinct codes, O(n + d log d) for
// d distinct codes. The rows are not modified.
func BuildCodeSubtree(rows *CodeRows, schema *dataset.Schema, cfg Config) *tree.Node {
	idx := make([]int, rows.Len())
	for i := range idx {
		idx[i] = i
	}
	b := &codeBuilder{rows: rows, schema: schema, cfg: cfg, k: schema.NumAttrs(), nc: schema.NumClasses()}
	maxCode := 0
	for a, attr := range schema.Attrs {
		if attr.Kind != dataset.Numeric {
			continue
		}
		for i := a; i < len(rows.codes); i += b.k {
			if c := int(rows.codes[i]); c > maxCode {
				maxCode = c
			}
		}
	}
	b.scr = getCodeScratch(maxCode+1, b.nc)
	root := grow(b, &b.cfg, idx, 0)
	// Not deferred: a build that panics leaves counts behind, and its
	// scratch must not return to the pool.
	codeScratchPool.Put(b.scr)
	return root
}

type codeBuilder struct {
	rows   *CodeRows
	schema *dataset.Schema
	cfg    Config
	k, nc  int
	scr    *codeScratch
}

// codeScratch is the per-attribute counting state, sized for the largest
// code. hist and seen are all zero between uses: only the entries of the
// distinct codes touched are cleared after each attribute, so a node costs
// its own size, not the code domain's.
type codeScratch struct {
	hist     []int32 // code*nc + class
	seen     []bool
	distinct []uint16
	cum      []int
}

var codeScratchPool sync.Pool

// getCodeScratch returns pooled scratch for codes 0..size-1 and nc classes.
func getCodeScratch(size, nc int) *codeScratch {
	s, _ := codeScratchPool.Get().(*codeScratch)
	if s == nil {
		s = &codeScratch{}
	}
	if len(s.seen) < size || len(s.cum) != nc {
		s.hist = make([]int32, size*nc)
		s.seen = make([]bool, size)
		s.cum = make([]int, nc)
	}
	return s
}

func (b *codeBuilder) classCounts(idx []int) []int {
	counts := make([]int, b.nc)
	for _, i := range idx {
		counts[b.rows.labels[i]]++
	}
	return counts
}

// bestSplit mirrors builder.bestSplit attribute by attribute: the same
// categorical subset search, and for numeric attributes the same candidate
// boundaries (between adjacent distinct codes), the same cumulative counts
// at each, the same first-strictly-better rule and the same midpoint as
// gini.BestSplitSorted.
func (b *codeBuilder) bestSplit(idx []int, total []int) (tree.Split, float64, bool) {
	var best tree.Split
	bestG := 2.0
	found := false
	codes, labels, k, nc := b.rows.codes, b.rows.labels, b.k, b.nc
	s := b.scr
	for a := 0; a < k; a++ {
		if b.cfg.AllowedAttrs != nil && !b.cfg.AllowedAttrs[a] {
			continue
		}
		attr := &b.schema.Attrs[a]
		if attr.Kind == dataset.Categorical {
			counts := make([][]int, attr.Cardinality())
			for v := range counts {
				counts[v] = make([]int, nc)
			}
			for _, i := range idx {
				counts[codes[i*k+a]][labels[i]]++
			}
			mask, g, ok := gini.BestSubsetSplit(counts)
			if ok && g < bestG {
				bestG = g
				best = tree.Split{Kind: tree.SplitCategorical, Attr: a, Subset: mask}
				found = true
			}
			continue
		}
		distinct := s.distinct[:0]
		for _, i := range idx {
			c := codes[i*k+a]
			if !s.seen[c] {
				s.seen[c] = true
				distinct = append(distinct, c)
			}
			s.hist[int(c)*nc+int(labels[i])]++
		}
		slices.Sort(distinct)
		cum := s.cum
		clear(cum)
		var thresh float64
		g := 2.0
		ok := false
		for j, c := range distinct {
			row := s.hist[int(c)*nc : int(c)*nc+nc]
			if j < len(distinct)-1 {
				for cl, n := range row {
					cum[cl] += int(n)
				}
				if sg := gini.SplitBelow(cum, total); sg < g {
					v, next := float64(c), float64(distinct[j+1])
					g, thresh, ok = sg, v+(next-v)/2, true
				}
			}
			clear(row)
			s.seen[c] = false
		}
		s.distinct = distinct
		if ok && g < bestG {
			bestG = g
			best = tree.Split{Kind: tree.SplitNumeric, Attr: a, Threshold: thresh}
			found = true
		}
	}
	return best, bestG, found
}

// partition splits idx in place: every statistic a node computes is
// order-independent, so the children may see their records in any order.
func (b *codeBuilder) partition(idx []int, s *tree.Split) (left, right []int) {
	codes, k := b.rows.codes, b.k
	goesLeft := func(i int) bool {
		c := codes[i*k+s.Attr]
		if s.Kind == tree.SplitCategorical {
			return s.Subset&(1<<uint(c)) != 0
		}
		return float64(c) <= s.Threshold
	}
	lo, hi := 0, len(idx)
	for lo < hi {
		if goesLeft(idx[lo]) {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	return idx[:lo], idx[lo:]
}

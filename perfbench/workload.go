package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"cmpdt"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// workload is one named input set. Every workload runs the whole path a
// user takes: a disk record store is trained on (TrainFile), the model is
// saved and loaded, the holdout is scored, and the model is then served over
// loopback HTTP. Workloads differ in the data, the training configuration
// and how the run's time is split between training and serving.
type workload struct {
	name string
	fn   synth.Func
	cfg  cmpdt.Config
	// minAccuracy is the holdout accuracy floor; minLinear the least number
	// of linear splits the tree must have.
	minAccuracy float64
	minLinear   int
}

// records is the size of each training store; holdoutRows the size of the
// scored test set, drawn with a different seed.
const (
	records     = 200_000
	holdoutRows = 20_000
)

var workloads = []workload{
	{
		name:        "train_quant_f7",
		fn:          synth.F7,
		cfg:         cmpdt.Config{Algorithm: cmpdt.CMPB, Quantize: true, Workers: 1},
		minAccuracy: 0.95,
	},
	{
		name:        "train_raw_cmp_f",
		fn:          synth.FPaper,
		cfg:         cmpdt.Config{Algorithm: cmpdt.CMP, Workers: 1},
		minAccuracy: 0.98,
		minLinear:   1,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// datasets is how many training stores a run writes and builds on in turn.
// Build time and allocation depend on the data a seed draws, so spreading a
// run's builds over several datasets keeps one draw from setting the run's
// figures: with 3 stores the run-to-run spread of train_rec_per_s on
// train_raw_cmp_f was 0.23, with 8 it was 0.08. Allocation on Function f
// varies most between stores; over simulated seeds, the spread of its
// median store was 0.061 with 8 stores, 0.050 with 12 and 0.036 with 24.
const datasets = 24

// inputs is what set-up leaves for the timed part of a run.
type inputs struct {
	stores    []string
	modelPath string
	probePath string
	rows      [][]float64 // holdout records
	labels    []int
}

// rowSink collects generated records in memory.
type rowSink struct {
	rows   [][]float64
	labels []int
}

func (r *rowSink) Append(vals []float64, label int) error {
	r.rows = append(r.rows, append([]float64(nil), vals...))
	r.labels = append(r.labels, label)
	return nil
}

// probeRows is the size of the labeled probe set every reload is checked
// against.
const probeRows = 200

// setup writes the training stores and the probe set under dir and draws
// the holdout. Everything it produces depends only on the workload and seed.
func setup(w workload, seed int64, dir string) (*inputs, error) {
	in := &inputs{
		modelPath: filepath.Join(dir, "model.json"),
		probePath: filepath.Join(dir, "probe.csv"),
	}
	for k := 0; k < datasets; k++ {
		path := filepath.Join(dir, fmt.Sprintf("train%d.rec", k))
		if err := writeStore(path, w, seed*datasets+int64(k)); err != nil {
			return nil, err
		}
		in.stores = append(in.stores, path)
	}
	var hold rowSink
	if err := synth.GenerateTo(&hold, w.fn, holdoutRows, -seed-1, synth.Options{}); err != nil {
		return nil, err
	}
	in.rows, in.labels = hold.rows, hold.labels
	return in, writeProbe(in.probePath, in.rows[:probeRows], in.labels[:probeRows])
}

func writeStore(path string, w workload, seed int64) error {
	wr, err := storage.CreateFile(path, synth.Schema())
	if err != nil {
		return err
	}
	if err := synth.GenerateTo(wr, w.fn, records, seed, synth.Options{}); err != nil {
		wr.Abort()
		return fmt.Errorf("writing training store: %w", err)
	}
	if _, err := wr.Close(); err != nil {
		return fmt.Errorf("closing training store: %w", err)
	}
	return nil
}

// writeProbe writes labeled rows in the CSV layout serve.Probe reads.
func writeProbe(path string, rows [][]float64, labels []int) error {
	schema := synth.Schema()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	header := make([]string, 0, len(schema.Attrs)+1)
	for _, a := range schema.Attrs {
		header = append(header, a.Name)
	}
	cw.Write(append(header, "class"))
	for i, r := range rows {
		rec := make([]string, 0, len(r)+1)
		for _, v := range r {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		cw.Write(append(rec, schema.Classes[labels[i]]))
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// trainResult is what the repeated builds measured.
type trainResult struct {
	builds int
	// Per untraced build (every build in an untraced run), with the index
	// of the store it ran on and the reference sort timed right after it.
	trainNs, readyNs []float64
	refNs            []float64
	allocMB          []float64
	storeOf          []int
	// Per build, traced or not.
	saveNs, loadNs, scoreNsPerRec []float64
	accuracy                      float64 // mean over builds
	modelBytes                    int
	// tree is the last build's in-memory tree; offline its predictions on
	// the holdout.
	tree    *cmpdt.Tree
	offline []int
	// Traced runs only: the traced builds' reports and TrainFile spans, the
	// outside scan passes over the store, and per pair of builds on one
	// store the traced TrainFile time minus the untraced one.
	reports    []*cmpdt.BuildReport
	tracedNs   []float64
	scanPassNs []float64
	overheadNs []float64
}

// minBuilds is the fewest builds a run makes, whatever its time budget, so
// every median has at least this many samples.
const minBuilds = 5

// trainPhase builds the tree repeatedly for budget, cycling over the
// training stores. Each build is followed by save, load and a score of the
// holdout, and checked. A traced run builds each store twice in a row, once
// traced (Observer attached, spans recorded) and once not, the order
// alternating from pair to pair, so the tracing overhead is measured on the
// same data.
func trainPhase(w workload, in *inputs, budget time.Duration, ref *hostRef, tr *tracer, chk *checks) (*trainResult, error) {
	res := &trainResult{}
	first := make([][]byte, datasets)
	var correctSum float64
	var pairNs float64 // the TrainFile time of the pair's first build
	dst := make([]int, len(in.rows))
	start := time.Now()
	for i := 0; i < minBuilds || time.Since(start) < budget; i++ {
		k, traced := i%datasets, false
		if tr != nil {
			k, traced = (i/2)%datasets, i%2 == (i/2)%2
		}
		store := in.stores[k]
		cfg := w.cfg
		var obsv *cmpdt.Observer
		var btr *tracer // the tracer for this build: nil when untraced
		if traced {
			obsv = cmpdt.NewObserver()
			cfg.Observer = obsv
			btr = tr
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)

		trace := btr.newID()
		root := btr.newID()
		t0 := time.Now()
		t, st, err := cmpdt.TrainFile(store, cfg)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("build %d: %w", i, err)
		}
		runtime.ReadMemStats(&m1)
		t2 := time.Now()
		if err := t.SaveModel(in.modelPath); err != nil {
			return nil, fmt.Errorf("build %d: saving model: %w", i, err)
		}
		t3 := time.Now()
		p, err := cmpdt.LoadPredictor(in.modelPath)
		t4 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("build %d: loading model: %w", i, err)
		}
		loaded, ok := p.(*cmpdt.Tree)
		if !ok {
			return nil, fmt.Errorf("build %d: loaded a %T, want a tree", i, p)
		}
		ct := loaded.Compiled()
		t5 := time.Now()
		ct.PredictBatch(dst, in.rows)
		t6 := time.Now()
		btr.record(trace, root, "train", t0, t1)
		btr.record(trace, root, "save", t2, t3)
		btr.record(trace, root, "load", t3, t4)
		btr.record(trace, root, "score", t5, t6)
		btr.recordID(trace, root, 0, "build", t0, t6)

		res.builds++
		if tr != nil {
			if ns := float64(t1.Sub(t0)); i%2 == 0 {
				pairNs = ns
			} else if traced {
				res.overheadNs = append(res.overheadNs, ns-pairNs)
			} else {
				res.overheadNs = append(res.overheadNs, pairNs-ns)
			}
		}
		if traced {
			res.reports = append(res.reports, obsv.Report())
			res.tracedNs = append(res.tracedNs, float64(t1.Sub(t0)))
			res.scanPassNs = append(res.scanPassNs, float64(scanPass(store, chk)))
		} else {
			res.refNs = append(res.refNs, ref.time())
			res.trainNs = append(res.trainNs, float64(t1.Sub(t0)))
			res.readyNs = append(res.readyNs, float64(t1.Sub(t0)+t4.Sub(t2)))
			res.allocMB = append(res.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			res.storeOf = append(res.storeOf, k)
		}
		res.saveNs = append(res.saveNs, float64(t3.Sub(t2)))
		res.loadNs = append(res.loadNs, float64(t4.Sub(t3)))
		res.scoreNsPerRec = append(res.scoreNsPerRec, float64(t6.Sub(t5))/float64(len(in.rows)))

		saved, err := os.ReadFile(in.modelPath)
		if err != nil {
			return nil, err
		}
		if first[k] == nil {
			first[k] = saved
		}
		chk.expect(bytes.Equal(saved, first[k]), "build %d serialized differently from the first build on store %d", i, k)
		correct := 0
		agree := true
		for r, row := range in.rows {
			if t.Predict(row) != dst[r] {
				agree = false
			}
			if dst[r] == in.labels[r] {
				correct++
			}
		}
		chk.expect(agree, "build %d: loaded model disagrees with the in-memory tree on the holdout", i)
		acc := float64(correct) / float64(len(in.rows))
		correctSum += acc
		res.accuracy = correctSum / float64(res.builds)
		chk.expect(acc >= w.minAccuracy, "build %d: holdout accuracy %.4f below the floor %.4f", i, acc, w.minAccuracy)
		chk.expect(t.LinearSplits() >= w.minLinear, "build %d: %d linear splits, want at least %d", i, t.LinearSplits(), w.minLinear)
		chk.expect(st.Scans > 0, "build %d reported no scans", i)
		res.modelBytes = len(saved)
		res.tree = t
		res.offline = append(res.offline[:0], dst...)
	}
	return res, nil
}

// scanPass times one full File.Scan over the store from outside the
// builder, and checks it visits every record.
func scanPass(path string, chk *checks) int64 {
	f, err := storage.OpenFile(path)
	if err != nil {
		chk.expect(false, "opening the store for a scan pass: %v", err)
		return 0
	}
	n := 0
	t0 := time.Now()
	err = f.Scan(func(int, []float64, int) error { n++; return nil })
	ns := time.Since(t0).Nanoseconds()
	chk.expect(err == nil && n == f.NumRecords(), "scan pass read %d of %d records (err %v)", n, f.NumRecords(), err)
	return ns
}

// reportPhaseNs sums a build report's phase totals over the phases that do
// not nest inside another (oblique nests in decide, sort in resolve).
func reportPhaseNs(r *cmpdt.BuildReport) int64 {
	var sum int64
	for _, p := range []string{"init", "scan", "resolve", "decide", "collect", "prune"} {
		sum += r.PhaseTotals[p].Ns
	}
	return sum
}

// storeMedian groups the untraced builds' values xs by store, takes each
// store's median and returns the median over the stores.
func (r *trainResult) storeMedian(xs []float64) float64 {
	by := make([][]float64, datasets)
	for i, x := range xs {
		by[r.storeOf[i]] = append(by[r.storeOf[i]], x)
	}
	var meds []float64
	for _, v := range by {
		if len(v) > 0 {
			meds = append(meds, median(v))
		}
	}
	return median(meds)
}

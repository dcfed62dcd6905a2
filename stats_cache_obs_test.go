package cmpdt

import (
	"bytes"
	"testing"
)

// TestStatsCacheReportConsistency pins the public contract between the
// statistics cache and the observability report: the report's stats block
// mirrors Stats exactly, and its scans_saved equals the cached-vs-uncached
// scan delta — in Stats.Scans and in the report's own build scan counter.
func TestStatsCacheReportConsistency(t *testing.T) {
	ds := loanDataset(t, 25_000)
	base := Config{
		Algorithm:           CMPB,
		Quantize:            true,
		Workers:             1,
		InMemoryNodeRecords: -1,
	}

	offObs := NewObserver()
	offCfg := base
	offCfg.Observer = offObs
	offTree, offStats, err := TrainStats(ds, offCfg)
	if err != nil {
		t.Fatal(err)
	}
	offRep := offObs.Report()
	if offRep.Stats.Enabled || offRep.Stats.ScansSaved != 0 {
		t.Fatalf("uncached report claims cache activity: %+v", offRep.Stats)
	}

	onObs := NewObserver()
	onCfg := base
	onCfg.StatsCacheBytes = 64 << 20
	onCfg.Observer = onObs
	onTree, onStats, err := TrainStats(ds, onCfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := onObs.Report()

	var offBuf, onBuf bytes.Buffer
	if err := offTree.WriteModel(&offBuf); err != nil {
		t.Fatal(err)
	}
	if err := onTree.WriteModel(&onBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(offBuf.Bytes(), onBuf.Bytes()) {
		t.Fatal("cached build's model differs from the uncached build's")
	}

	if !rep.Stats.Enabled {
		t.Fatal("report stats block not marked enabled")
	}
	if rep.Stats.BudgetBytes != onCfg.StatsCacheBytes {
		t.Fatalf("report budget = %d, want %d", rep.Stats.BudgetBytes, onCfg.StatsCacheBytes)
	}
	// The report's stats block is a verbatim copy of the build stats.
	if rep.Stats.ScansSaved != onStats.ScansSaved {
		t.Fatalf("report scans_saved = %d, Stats.ScansSaved = %d",
			rep.Stats.ScansSaved, onStats.ScansSaved)
	}
	// And scans_saved is exactly the scan delta, in Stats and in the
	// report's build summary.
	if onStats.Scans != offStats.Scans-onStats.ScansSaved {
		t.Fatalf("Scans = %d, want uncached %d - saved %d",
			onStats.Scans, offStats.Scans, onStats.ScansSaved)
	}
	if rep.Build.Scans != offRep.Build.Scans-rep.Stats.ScansSaved {
		t.Fatalf("report build.scans = %d, want uncached %d - scans_saved %d",
			rep.Build.Scans, offRep.Build.Scans, rep.Stats.ScansSaved)
	}
	if onStats.ScansSaved == 0 {
		t.Fatal("deep build saved no scans; the regression this test pins is gone")
	}
}

// TestQuantizedCMPReportAlgorithm: the report names the variant that ran.
// Quantized builds search no linear-combination splits, so a quantized CMP
// build reports CMP-B; a raw one reports CMP.
func TestQuantizedCMPReportAlgorithm(t *testing.T) {
	ds := loanDataset(t, 3_000)
	for _, tc := range []struct {
		quantize bool
		want     string
	}{{false, "CMP"}, {true, "CMP-B"}} {
		o := NewObserver()
		if _, err := Train(ds, Config{Algorithm: CMP, Quantize: tc.quantize, Workers: 1, Observer: o}); err != nil {
			t.Fatal(err)
		}
		if got := o.Report().Build.Algorithm; got != tc.want {
			t.Errorf("quantize=%v: build.algorithm = %q, want %q", tc.quantize, got, tc.want)
		}
	}
}

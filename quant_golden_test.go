package cmpdt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmpdt/internal/synth"
)

var updateQuantGolden = flag.Bool("update-quant-golden", false, "rewrite testdata/quant_models.golden")

// TestQuantizedModelGolden pins the saved model of every quantized build on
// Agrawal F1–F10 (20k records, CMP-S and CMP-B, workers 1 and 4) to a
// SHA-256 digest. The builds run with the default in-memory threshold, so
// the collect finisher shapes every deep subtree: any change to it that
// alters a single threshold, count or node shows up as a digest mismatch.
func TestQuantizedModelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("40 builds")
	}
	golden := filepath.Join("testdata", "quant_models.golden")
	var got []string
	for fn := synth.F1; fn <= synth.F10; fn++ {
		ds := &Dataset{tbl: synth.Generate(fn, 20_000, int64(fn))}
		for _, algo := range []Algorithm{CMPS, CMPB} {
			var digest string
			for _, workers := range []int{1, 4} {
				tr, err := Train(ds, Config{Algorithm: algo, Quantize: true, Workers: workers, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := tr.WriteModel(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				d := hex.EncodeToString(sum[:])
				if digest != "" && d != digest {
					t.Errorf("%v %v: workers=%d model differs from workers=1", fn, algo, workers)
				}
				digest = d
			}
			got = append(got, fmt.Sprintf("%v %v %s", fn, algo, digest))
		}
	}
	if *updateQuantGolden {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, build produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("model digest changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

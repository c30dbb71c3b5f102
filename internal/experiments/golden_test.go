package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The Figure 3/4 and quantum-sweep goldens pin the analysis layer's output
// byte for byte on a reduced fixed-seed protocol. The rendered tables are
// what users see; the full-precision point dumps additionally catch a
// change below the tables' printed precision (a float64 that moved in its
// last bit). Regenerate only after an intentional behaviour change:
//
//	go test ./internal/experiments -run TestGolden -update

var update = flag.Bool("update", false, "rewrite the golden files from the current implementation")

// goldenFig3Config is small enough to run in about a second yet reaches
// bins of dozens of tasks (N=500) at every utilization band.
func goldenFig3Config() Fig3Config {
	return Fig3Config{Ns: []int{50, 100, 250, 500}, Steps: 5, SetsPerStep: 3, Seed: 7919, Workers: 2}
}

func goldenQuantumConfig() QuantumSweepConfig {
	cfg := DefaultQuantumSweepConfig()
	cfg.Sets = 10
	cfg.Seed = 7919
	cfg.Workers = 2
	return cfg
}

// g renders a float64 at full precision, so a golden pins its exact bits.
func g(x float64) string { return fmt.Sprintf("%v", x) }

func goldenFig3() string {
	cfg := goldenFig3Config()
	data := Fig3(cfg)
	var b strings.Builder
	RenderFig3(&b, cfg.Ns, data)
	RenderFig4(&b, cfg.Ns, data)
	fmt.Fprintln(&b, "# full-precision points: N total mean pd2 pd2_relerr ff ff_relerr loss_pfair loss_edf loss_ff")
	for _, n := range cfg.Ns {
		for _, p := range data[n] {
			fmt.Fprintln(&b, p.N, g(p.TotalUtil), g(p.MeanUtil), g(p.PD2Procs), g(p.PD2RelErr),
				g(p.FFProcs), g(p.FFRelErr), g(p.LossPfair), g(p.LossEDF), g(p.LossFF))
		}
	}
	return b.String()
}

func goldenQuantum() string {
	points := QuantumSweep(goldenQuantumConfig())
	var b strings.Builder
	RenderQuantum(&b, points)
	fmt.Fprintln(&b, "# full-precision points: q pd2 rounding overhead infeasible")
	for _, p := range points {
		fmt.Fprintln(&b, p.QuantumUS, g(p.PD2Procs), g(p.RoundingLoss), g(p.OverheadLoss), p.Infeasible)
	}
	return b.String()
}

func TestGoldenAnalysis(t *testing.T) {
	cases := []struct {
		name string
		run  func() string
	}{
		{"fig3-fig4", goldenFig3},
		{"quantum", goldenQuantum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run()
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("%s differs from %s at line %d:\n got: %s\nwant: %s", tc.name, path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s differs from %s in length: %d lines, want %d", tc.name, path, len(gl), len(wl))
			}
		})
	}
}

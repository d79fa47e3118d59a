package cliutil

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/tensor"
)

func TestOperatingPointBuild(t *testing.T) {
	// A weight snapshot from a model built with another seed: loading it
	// must give that model's outputs, including after int8 quantization.
	donor, err := models.Build(models.VGGSim(), models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	weights := filepath.Join(t.TempDir(), "w.bin")
	f, err := os.Create(weights)
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.Net.SaveParams(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := donor.QuantizeInt8(); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(1)), 1)

	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
		check   func(t *testing.T, m *models.Model)
	}{
		{name: "defaults", check: func(t *testing.T, m *models.Model) {
			want := models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}}
			if m.Cfg.Name != "VGG16-sim" || m.Opt != want {
				t.Fatalf("cfg %s opt %+v, want VGG16-sim %+v", m.Cfg.Name, m.Opt, want)
			}
		}},
		{name: "flags map to options",
			args: []string{"-model", "resnet-sim", "-grid", "2x4", "-clip-lo", "0.05", "-clip-hi", "2.5", "-quant", "4"},
			check: func(t *testing.T, m *models.Model) {
				want := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 4}, ClipLo: 0.05, ClipHi: 2.5, QuantBits: 4}
				if m.Cfg.Name != "ResNet34-sim" || m.Opt != want {
					t.Fatalf("cfg %s opt %+v, want ResNet34-sim %+v", m.Cfg.Name, m.Opt, want)
				}
			}},
		{name: "quantized is int8", args: []string{"-quantized"}, check: func(t *testing.T, m *models.Model) {
			if !m.Opt.Int8 || !m.Int8InputOK() {
				t.Fatalf("opt.Int8 %v, int8 entry %v: -quantized must leave the model int8", m.Opt.Int8, m.Int8InputOK())
			}
		}},
		{name: "weights load before quantization",
			args: []string{"-grid", "2x2", "-weights", weights, "-quantized"},
			check: func(t *testing.T, m *models.Model) {
				if !m.Net.Forward(x, false).Equal(donor.Net.Forward(x, false), 0) {
					t.Fatal("output differs from the donor model whose weights were loaded")
				}
			}},
		{name: "bad model", args: []string{"-model", "alexnet"}, wantErr: "unknown model"},
		{name: "bad grid", args: []string{"-grid", "4by4"}, wantErr: "bad grid"},
		{name: "missing weights", args: []string{"-weights", filepath.Join(t.TempDir(), "none.bin")}, wantErr: "open weights"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
			op := RegisterOperatingPoint(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			m, err := op.Build(nil)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, m)
		})
	}
}

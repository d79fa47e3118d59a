// Package cliutil provides the small helpers the adcnn command-line
// tools share: resolving sim-scale model configs by short name,
// parsing partition grids, the daemons' shared operating-point flags
// and their logging flags.
package cliutil

import (
	"fmt"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
)

// shortNames maps CLI model names to sim-scale config names.
var shortNames = map[string]string{
	"vgg-sim":     "VGG16-sim",
	"resnet-sim":  "ResNet34-sim",
	"yolo-sim":    "YOLO-sim",
	"fcn-sim":     "FCN-sim",
	"charcnn-sim": "CharCNN-sim",
}

// SimConfigByName resolves a CLI short name to its sim-scale config.
func SimConfigByName(name string) (models.Config, error) {
	want, ok := shortNames[name]
	if !ok {
		return models.Config{}, fmt.Errorf("unknown model %q (want vgg-sim|resnet-sim|yolo-sim|fcn-sim|charcnn-sim)", name)
	}
	for _, cfg := range models.SimScale() {
		if cfg.Name == want {
			return cfg, nil
		}
	}
	return models.Config{}, fmt.Errorf("config %q missing from zoo", want)
}

// FullConfigByName resolves a full-scale model by its paper name.
func FullConfigByName(name string) (models.Config, error) {
	for _, cfg := range models.FullScale() {
		if cfg.Name == name {
			return cfg, nil
		}
	}
	return models.Config{}, fmt.Errorf("unknown full-scale model %q", name)
}

// ParseGrid parses "RxC" partition syntax.
func ParseGrid(s string) (fdsp.Grid, error) {
	var g fdsp.Grid
	if _, err := fmt.Sscanf(s, "%dx%d", &g.Rows, &g.Cols); err != nil {
		return g, fmt.Errorf("bad grid %q (want e.g. 4x4): %w", s, err)
	}
	if err := g.Validate(); err != nil {
		return g, err
	}
	return g, nil
}

package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"obfuscade/internal/core"
	"obfuscade/internal/gcode"
	"obfuscade/internal/printer"
)

// parts are the four protected designs of the serving vocabulary; their
// key spaces together are the 36 (part, key) pairs every workload uses.
var parts = []string{"bar", "bar-sphere", "double-bar", "prism"}

// pin is the expected output of one (part, key) pair.
type pin struct {
	Part        string `json:"part"`
	Resolution  string `json:"resolution"`
	Orientation string `json:"orientation"`
	Restore     bool   `json:"restore_sphere"`
	Grade       string `json:"grade"`
	STLSHA256   string `json:"stl_sha256"`
	STLBytes    int    `json:"stl_bytes"`
	GCodeSHA256 string `json:"gcode_sha256"`
}

func pinID(part string, k core.Key) string {
	return fmt.Sprintf("%s|%s|%s|%t", part, k.Resolution.Name, k.Orientation, k.RestoreSphere)
}

func (p pin) id() string {
	return fmt.Sprintf("%s|%s|%s|%t", p.Part, p.Resolution, p.Orientation, p.Restore)
}

//go:embed pins.json
var pinsJSON []byte

// pinTable is the committed pin table in file order, indexed by pinID.
type pinTable struct {
	list []pin
	byID map[string]pin
}

// loadPins parses the committed pin table.
func loadPins() (pinTable, error) {
	var t pinTable
	if err := json.Unmarshal(pinsJSON, &t.list); err != nil {
		return t, fmt.Errorf("pins.json: %w", err)
	}
	t.byID = make(map[string]pin, len(t.list))
	for _, p := range t.list {
		t.byID[p.id()] = p
	}
	if len(t.byID) != 36 || len(t.list) != 36 {
		return t, fmt.Errorf("pins.json: %d distinct pairs, want 36", len(t.byID))
	}
	return t, nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// writePins regenerates the pin table. Every pair is manufactured three
// ways — the serial quality matrix, the matrix on a pool of every CPU,
// and the plain pipeline (for the G-code bytes) — and the table is
// written only if all three agree.
func writePins(path string) error {
	prof := printer.DimensionElite()
	var list []pin
	for _, name := range parts {
		prot, err := core.BuildProtected(name)
		if err != nil {
			return err
		}
		serial, err := core.QualityMatrixWorkers(prot, prof, 1)
		if err != nil {
			return err
		}
		pool, err := core.QualityMatrixWorkers(prot, prof, runtime.NumCPU())
		if err != nil {
			return err
		}
		for i, e := range serial {
			if p := pool[i]; p.Provenance.STLSHA256 != e.Provenance.STLSHA256 || p.Quality.Grade != e.Quality.Grade {
				return fmt.Errorf("%s: serial and pool disagree", pinID(name, e.Key))
			}
			res, err := core.ManufactureCtx(context.Background(), prot, e.Key, prof)
			if err != nil {
				return err
			}
			if sha(res.Run.STLBytes) != e.Provenance.STLSHA256 || res.Quality.Grade != e.Quality.Grade {
				return fmt.Errorf("%s: pipeline and matrix disagree", pinID(name, e.Key))
			}
			g, err := gcode.Marshal(res.Run.GCode)
			if err != nil {
				return err
			}
			list = append(list, pin{
				Part:        name,
				Resolution:  e.Key.Resolution.Name,
				Orientation: e.Key.Orientation.String(),
				Restore:     e.Key.RestoreSphere,
				Grade:       e.Quality.Grade.String(),
				STLSHA256:   e.Provenance.STLSHA256,
				STLBytes:    len(res.Run.STLBytes),
				GCodeSHA256: sha(g),
			})
		}
	}
	data, err := json.MarshalIndent(list, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

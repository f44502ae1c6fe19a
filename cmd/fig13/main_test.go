package main

import (
	"strings"
	"testing"

	"repro/internal/npb"
)

func TestRunFig13Row(t *testing.T) {
	row := runFig13("EP", npb.ClassS, npb.Reo, 2)
	if row.Err != nil {
		t.Fatal(row.Err)
	}
	if row.Elapsed <= 0 || row.Steps == 0 {
		t.Errorf("row = %+v", row)
	}
	out := formatFig13([]fig13Row{row})
	if !strings.Contains(out, "EP") {
		t.Errorf("format: %s", out)
	}
	bad := runFig13("NOPE", npb.ClassS, npb.Orig, 2)
	if bad.Err == nil {
		t.Error("unknown program accepted")
	}
}

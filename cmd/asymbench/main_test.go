package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dynasym/internal/core"
)

func TestBadScaleExitsNonZero(t *testing.T) {
	for _, scale := range []string{"NaN", "Inf", "-0.5", "1.5"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-scenario", "burst-sweep", "-scale", scale}, &out, &errOut)
		if code == 0 || !strings.Contains(errOut.String(), "[0, 1]") {
			t.Errorf("-scale %s: exit %d, stderr %q; want non-zero and the range named", scale, code, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("-scale %s ran anyway: %q", scale, out.String())
		}
	}
}

func TestListShowsTable1AndFamilies(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"# Table 1", "DAM-P     Dynamic", "fig9a", "ablation-wake", "burst-sweep"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output lacks %q", want)
		}
	}
}

// TestTable1MatchesPaper pins the paper's Table 1 row by row, both as
// core.All() reports it and as -list prints it.
func TestTable1MatchesPaper(t *testing.T) {
	want := []struct {
		name string
		f    core.Features
	}{
		{"RWS", core.Features{Asymmetry: "N/A", Mold: "N/A", Placement: "N/A"}},
		{"RWSM-C", core.Features{Asymmetry: "N/A", Mold: "Yes", Placement: "Resource Cost"}},
		{"FA", core.Features{Asymmetry: "Fixed", Mold: "No", Placement: "Fast cores"}},
		{"FAM-C", core.Features{Asymmetry: "Fixed", Mold: "Yes", Placement: "Resource Cost"}},
		{"DA", core.Features{Asymmetry: "Dynamic", Mold: "No", Placement: "N/A"}},
		{"DAM-C", core.Features{Asymmetry: "Dynamic", Mold: "Yes", Placement: "Resource Cost"}},
		{"DAM-P", core.Features{Asymmetry: "Dynamic", Mold: "Yes", Placement: "Performance"}},
	}
	all := core.All()
	if len(all) != len(want) {
		t.Fatalf("%d rows", len(all))
	}
	var buf bytes.Buffer
	writeList(&buf)
	for i, w := range want {
		if all[i].Name() != w.name || core.FeaturesOf(all[i]) != w.f {
			t.Fatalf("row %d = %s %+v, want %s %+v", i, all[i].Name(), core.FeaturesOf(all[i]), w.name, w.f)
		}
		line := fmt.Sprintf("%-8s  %-22s  %-12s  %s\n", w.name, w.f.Asymmetry, w.f.Mold, w.f.Placement)
		if !strings.Contains(buf.String(), line) {
			t.Errorf("-list lacks Table 1 row %q", line)
		}
	}
}

func TestFamilyPrintsTableAndView(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-scenario", "fig5", "-scale", "0.05"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"# fig5\n", "# Figure 5: distribution of priority tasks", "(fig5 on "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// An unknown family (formerly an unknown ablation variant) is an error
// that lists the known ones.
func TestUnknownFamilyRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-scenario", "ablation-bogus"}, &out, &errOut); code == 0 {
		t.Error("unknown family exited 0")
	}
	if !strings.Contains(errOut.String(), "ablation-steal") {
		t.Errorf("error does not list the known families: %q", errOut.String())
	}
}

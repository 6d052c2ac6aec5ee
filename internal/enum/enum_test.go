package enum

import "testing"

type color int

const (
	red color = iota
	dark
	numColors
)

var colors = New[color]("paint", "color", []string{red: "red", dark: "dark-blue"})

func TestTable(t *testing.T) {
	if got := colors.All(); len(got) != int(numColors) || got[0] != red || got[1] != dark {
		t.Errorf("All = %v", got)
	}
	if got := colors.String(dark); got != "dark-blue" {
		t.Errorf("String(dark) = %q", got)
	}
	if got := colors.String(numColors); got != "color(2)" {
		t.Errorf("String(numColors) = %q", got)
	}
	if colors.Valid(-1) || colors.Valid(numColors) || !colors.Valid(red) {
		t.Error("Valid disagrees with the declared range")
	}
	colors.Names()[0] = "mutated"
	if colors.String(red) != "red" {
		t.Error("Names hands out the table itself")
	}
	for in, want := range map[string]color{"red": red, " Dark_Blue ": dark, "1": dark} {
		if got, err := colors.Parse(in); err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for in, want := range map[string]string{
		"green": `paint: unknown color "green" (have: red, dark-blue)`,
		"2":     "paint: color index 2 out of range [0, 2)",
		"-1":    "paint: color index -1 out of range [0, 2)",
	} {
		if _, err := colors.Parse(in); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) error = %v; want %s", in, err, want)
		}
	}
}

// TestNewRejectsAMissingName: a kind left out of the keyed list leaves a
// hole, which New refuses at init.
func TestNewRejectsAMissingName(t *testing.T) {
	defer func() {
		if r := recover(); r != "paint: color 0 has no name" {
			t.Errorf("recovered %v", r)
		}
	}()
	New[color]("paint", "color", []string{dark: "dark-blue"})
}

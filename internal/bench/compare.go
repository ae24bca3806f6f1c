package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
)

// A Snapshot is the result of a gated experiment (sync, coll, recover,
// halo): the struct WriteSnapshot stores as BENCH_<exp>.json and
// ReadSnapshot reads back as a baseline. Its Checks field holds the
// acceptance booleans; rows names its timed rows, which Compare matches
// between baseline and current run by key.
type Snapshot interface {
	rows() []row
}

// row is one timed row of a snapshot, named by a key unique within it.
type row struct {
	key string
	ns  float64
}

// WriteSnapshot writes the full result snapshot as indented JSON.
func WriteSnapshot(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot written by WriteSnapshot into a fresh
// value of cur's own type, so the baseline compares field by field with
// the run that is checked against it.
func ReadSnapshot(r io.Reader, cur Snapshot) (Snapshot, error) {
	base := reflect.New(reflect.TypeOf(cur).Elem()).Interface().(Snapshot)
	if err := json.NewDecoder(r).Decode(base); err != nil {
		return nil, err
	}
	return base, nil
}

// Compare prints the baseline's and the current run's ns/op side by
// side for every row present in both, then returns an error if an
// acceptance check that held in the baseline fails now. The timing
// deltas are informational (runners are noisy); check regressions are
// the hard failure.
func Compare(w io.Writer, kind string, base, cur Snapshot) error {
	now := map[string]float64{}
	width := 0
	for _, r := range cur.rows() {
		now[r.key] = r.ns
		width = max(width, len(r.key))
	}
	fprintf(w, "%s comparison vs baseline\n", kind)
	for _, b := range base.rows() {
		c, ok := now[b.key]
		if !ok {
			continue
		}
		delta := "n/a"
		if b.ns > 0 {
			delta = fmt.Sprintf("%+.1f%%", (c-b.ns)/b.ns*100)
		}
		fprintf(w, "  %-*s %12.0f -> %12.0f ns/op  %s\n", width, b.key, b.ns, c, delta)
	}
	return compareChecks(w, kind, checksOf(base), checksOf(cur))
}

// checksOf returns a snapshot's Checks field.
func checksOf(s Snapshot) any {
	return reflect.ValueOf(s).Elem().FieldByName("Checks").Interface()
}

// check is one acceptance check as PrintSync, PrintColl and PrintHalo
// report it.
type check struct {
	name string
	ok   bool
}

// printChecks renders the acceptance checks as [PASS]/[FAIL] lines.
func printChecks(w io.Writer, checks []check) {
	fprintf(w, "\nChecks:\n")
	for _, c := range checks {
		state := "PASS"
		if !c.ok {
			state = "FAIL"
		}
		fprintf(w, "  [%s] %s\n", state, c.name)
	}
}

// compareChecks flags every check that held in the baseline's
// acceptance-check struct (a flat struct of bools) but fails in the
// current run's.
//
// Check names come from the field's json tag when present (the same
// name the snapshot file uses), else from the snake-cased field name.
// A check that was already false in the baseline never regresses — new
// checks can land false and tighten later without breaking CI.
func compareChecks(w io.Writer, kind string, base, cur any) error {
	bv := reflect.ValueOf(base)
	cv := reflect.ValueOf(cur)
	if bv.Type() != cv.Type() || bv.Kind() != reflect.Struct {
		return fmt.Errorf("%s checks: mismatched snapshot types %T vs %T", kind, base, cur)
	}
	var regressed []string
	t := bv.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() != reflect.Bool || !f.IsExported() {
			continue
		}
		if bv.Field(i).Bool() && !cv.Field(i).Bool() {
			regressed = append(regressed, checkName(f))
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%s checks regressed vs baseline: %v", kind, regressed)
	}
	fprintf(w, "all baseline checks still hold\n")
	return nil
}

// checkName derives the reported name of a check field.
func checkName(f reflect.StructField) string {
	if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag != "" && tag != "-" {
		return tag
	}
	return snakeCase(f.Name)
}

// snakeCase converts a Go field name (FrameCut2x) to the snapshot-file
// style (frame_cut_2x) used in regression reports.
func snakeCase(s string) string {
	var b strings.Builder
	for i, r := range s {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

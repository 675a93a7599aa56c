package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path"
	"sort"
)

// Reference seeds: results for these are recorded under testdata/ and
// compared field by field. referenceSeeds[0] is the development seed,
// referenceSeeds[1] is held out (not used while tuning the benchmark).
// Any other seed is checked against a scratch oracle run in-process.
var referenceSeeds = []int64{1, 2}

// references are the recorded results, compiled into the binary;
// -record rewrites the files from the checkout root.
//
//go:embed testdata/*.json
var references embed.FS

func refName(workload string, seed int64) string {
	return fmt.Sprintf("testdata/%s.seed%d.json", workload, seed)
}

func isReferenceSeed(seed int64) bool {
	for _, s := range referenceSeeds {
		if s == seed {
			return true
		}
	}
	return false
}

// loadReference reads a recorded reference into v.
func loadReference(workload string, seed int64, v any) error {
	data, err := references.ReadFile(refName(workload, seed))
	if err != nil {
		return fmt.Errorf("reference for %s seed %d: %w", workload, seed, err)
	}
	return json.Unmarshal(data, v)
}

func writeReference(workload string, seed int64, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path.Join("perfbench", refName(workload, seed)), append(data, '\n'), 0o644)
}

// diffFields compares two values by their JSON encodings and returns
// the paths of every field that differs. Numbers compare as their
// encoded text, which the encoder makes exact for float64 (shortest
// round-tripping form), so "equal" means bit-identical.
func diffFields(got, want any) ([]string, error) {
	g, err := flatten(got)
	if err != nil {
		return nil, err
	}
	w, err := flatten(want)
	if err != nil {
		return nil, err
	}
	var diffs []string
	for k, wv := range w {
		if gv, ok := g[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: missing, want %s", k, wv))
		} else if gv != wv {
			diffs = append(diffs, fmt.Sprintf("%s: got %s, want %s", k, gv, wv))
		}
	}
	for k, gv := range g {
		if _, ok := w[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: unexpected %s", k, gv))
		}
	}
	sort.Strings(diffs)
	return diffs, nil
}

// flatten renders v as path → encoded leaf value.
func flatten(v any) (map[string]string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	out := map[string]string{}
	var walk func(path string, n any)
	walk = func(path string, n any) {
		switch n := n.(type) {
		case map[string]any:
			for k, c := range n {
				walk(path+"."+k, c)
			}
		case []any:
			out[path+".len"] = fmt.Sprint(len(n))
			for i, c := range n {
				walk(fmt.Sprintf("%s[%d]", path, i), c)
			}
		default:
			out[path] = fmt.Sprint(n)
		}
	}
	walk("", tree)
	return out, nil
}

// checkEqual compares got against want and reports each differing
// field; it returns whether they matched.
func checkEqual(o *outcome, what string, got, want any) bool {
	diffs, err := diffFields(got, want)
	if err != nil {
		o.fail(1, "%s: %v", what, err)
		return false
	}
	if len(diffs) == 0 {
		return true
	}
	const show = 5
	for i, d := range diffs {
		if i == show {
			fmt.Fprintf(os.Stderr, "  ... %d more\n", len(diffs)-show)
			break
		}
		fmt.Fprintf(os.Stderr, "  %s %s\n", what, d)
	}
	o.fail(1, "%s: %d fields differ from the expected output", what, len(diffs))
	return false
}

// recordReferences runs the scratch oracles of the simulator workloads
// for every reference seed and writes their results under testdata/.
func recordReferences() error {
	for _, seed := range referenceSeeds {
		cells, err := fig6Oracle(seed)
		if err != nil {
			return err
		}
		if err := writeReference("fig6-sweep", seed, cells); err != nil {
			return err
		}
		calls, err := mix4Oracle(seed)
		if err != nil {
			return err
		}
		if err := writeReference("mix4-fork", seed, calls); err != nil {
			return err
		}
	}
	return nil
}

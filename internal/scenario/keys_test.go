package scenario

import (
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/jacobi"
	"repro/internal/matmul"
	"repro/internal/noc"
	"repro/internal/resultcache"
)

// keyConfigs lists, per result-cache key domain, the config types its key
// reads through resultcache.KeyBuilder.Struct: the values the domain's
// simulator receives. scenario/trace is keyed by hand (the trace's
// content hash covers its events and horizon) and is not listed.
var keyConfigs = map[string][]reflect.Type{
	"scenario/noc":     {reflect.TypeFor[noc.MeasureConfig]()},
	"scenario/service": {reflect.TypeFor[noc.ServiceMeasureConfig]()},
	"dse/jacobi":       {reflect.TypeFor[jacobi.Spec](), reflect.TypeFor[kernelJob]()},
	"dse/matmul":       {reflect.TypeFor[matmul.Spec](), reflect.TypeFor[kernelJob]()},
	"dse/syncbench":    {reflect.TypeFor[kernelSystem]()},
}

// inertFields is every field tagged `key:"-"` that a domain's configs
// reach, with the reason it cannot change a result. A new inert field
// fails TestKeyInertFieldsAllowlisted until it is listed here.
var inertFields = map[string]map[string]string{
	"scenario/noc": {
		"noc.TrafficConfig.Record": "observational: it sees each injection after the decision is final, and rows are byte-identical with or without it (TestRecordReplayScenarioGolden)",
	},
	"scenario/service": {},
	"dse/jacobi":       {},
	"dse/matmul":       {},
	"dse/syncbench":    {},
}

// walkKeyFields visits every exported field Struct reaches from typ the
// way Struct does: untagged structs and pointers to structs flatten, and
// every other field is a leaf whose tag (possibly absent) leaf receives.
func walkKeyFields(typ reflect.Type, leaf func(name, tag string, tagged bool)) {
	if typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	for i := range typ.NumField() {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		tag, tagged := f.Tag.Lookup("key")
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if !tagged && ft.Kind() == reflect.Struct {
			walkKeyFields(ft, leaf)
			continue
		}
		leaf(typ.String()+"."+f.Name, tag, tagged)
	}
}

// TestKeyInertFieldsAllowlisted: the fields a domain's key skips are
// exactly its allowlist, and no field it reaches is untagged. Tagging a
// result-changing field `-`, or adding a config field without a key tag,
// fails here before any stale row can be served.
func TestKeyInertFieldsAllowlisted(t *testing.T) {
	for _, domain := range slices.Sorted(maps.Keys(keyConfigs)) {
		inert := map[string]string{}
		for _, typ := range keyConfigs[domain] {
			walkKeyFields(typ, func(name, tag string, tagged bool) {
				switch {
				case !tagged:
					t.Errorf("%s: %s has no key tag", domain, name)
				case tag == "-":
					inert[name] = inertFields[domain][name]
				}
			})
		}
		if !maps.Equal(inert, inertFields[domain]) {
			t.Errorf("%s: inert fields %v, allowlist %v", domain, slices.Sorted(maps.Keys(inert)), slices.Sorted(maps.Keys(inertFields[domain])))
		}
		for name, why := range inertFields[domain] {
			if why == "" {
				t.Errorf("%s: inert field %s has no reason", domain, name)
			}
		}
	}
}

// pointInputs is one point's cache key beside everything its simulation
// receives.
type pointInputs struct {
	key   resultcache.Key
	input any
}

// keyMutation is one edit of a scenario input, by JSON text replacement.
type keyMutation struct{ from, to string }

// checkKeyTracksInputs parses base and each mutation of it, and asserts
// point for point that the key changes exactly when what the simulation
// receives does: a key that misses an input serves a stale row, and one
// that names a value the simulation never reads splits one entry in two.
// Each alias spells out a default or an ignored field of base, so the
// key and the resolved input must both hold.
func checkKeyTracksInputs(t *testing.T, base string, mutations, aliases []keyMutation, inputs func(*testing.T, *Scenario) []pointInputs) {
	t.Helper()
	s, err := Parse([]byte(base))
	if err != nil {
		t.Fatal(err)
	}
	want := inputs(t, s)
	check := func(m keyMutation, alias bool) {
		if !strings.Contains(base, m.from) {
			t.Fatalf("mutation %s -> %s: base has no %s", m.from, m.to, m.from)
		}
		ms, err := Parse([]byte(strings.Replace(base, m.from, m.to, 1)))
		if err != nil {
			t.Fatalf("mutation %s -> %s: %v", m.from, m.to, err)
		}
		got := inputs(t, ms)
		if len(got) != len(want) {
			t.Fatalf("mutation %s -> %s: %d points, base %d", m.from, m.to, len(got), len(want))
		}
		for i := range got {
			keyMoved := got[i].key != want[i].key
			inputMoved := !reflect.DeepEqual(got[i].input, want[i].input)
			if keyMoved != inputMoved || alias && keyMoved {
				t.Errorf("mutation %s -> %s (alias %v), point %d: key moved %v, simulator input moved %v\nbase %+v\nmutated %+v",
					m.from, m.to, alias, i, keyMoved, inputMoved, want[i].input, got[i].input)
			}
		}
	}
	for _, m := range mutations {
		check(m, false)
	}
	for _, m := range aliases {
		check(m, true)
	}
}

// TestKernelKeyTracksSystemConfig perturbs every kernel-section input of
// a jacobi+matmul+syncbench scenario. A point's key must change exactly
// when its built core.Config (Record aside: observational), its kernel's
// spec, or its variant or barrier kind does.
func TestKernelKeyTracksSystemConfig(t *testing.T) {
	base := `{"workloads": ["jacobi", "matmul", "syncbench"], "kernel": {"n": 16, "variant": "hybrid-full", "cores": [2], "cache_kb": [4], "policies": ["wb"], "warmup": 1}}`
	mutations := []keyMutation{
		{`"n": 16`, `"n": 30`},
		{`"variant": "hybrid-full"`, `"variant": "pure-sm"`},
		{`"variant": "hybrid-full"`, `"variants": ["hybrid-full"]`},
		{`"cores": [2]`, `"cores": [6]`},
		{`"cache_kb": [4]`, `"cache_kb": [8]`},
		{`"policies": ["wb"]`, `"policies": ["wt"]`},
		{`"policies": ["wb"]`, `"policies": ["write-back"]`},
		{`"warmup": 1`, `"warmup": 2`},
		{`"warmup": 1`, `"measured": 1`},
		{`"warmup": 1`, `"warmup": 1, "measured": 1`},
		{`"warmup": 1`, `"warmup": 1, "measured": 3`},
		{`"warmup": 1`, `"warmup": 1, "rounds": 10`},
		{`"warmup": 1`, `"warmup": 1, "rounds": 20`},
	}
	checkKeyTracksInputs(t, base, mutations, nil, func(t *testing.T, s *Scenario) []pointInputs {
		kinds, err := s.workloadKinds()
		if err != nil {
			t.Fatal(err)
		}
		ks, err := s.Kernel.sweep()
		if err != nil {
			t.Fatal(err)
		}
		var out []pointInputs
		for _, k := range kinds {
			for _, j := range ks.jobs() {
				cfg := j.System.config()
				cfg.Record = nil
				switch k {
				case WorkloadJacobi:
					spec := ks.jacobiSpec()
					out = append(out, pointInputs{jacobiPointKey(spec, j), []any{k, cfg, spec, j.Variant}})
				case WorkloadMatmul:
					spec := ks.matmulSpec()
					out = append(out, pointInputs{matmulPointKey(spec, j), []any{k, cfg, spec, j.Variant}})
				case WorkloadSyncbench:
					kind := barrierKind(j.Variant)
					out = append(out, pointInputs{syncbenchPointKey(kind, ks.rounds, j.System), []any{k, cfg, kind, ks.rounds}})
				}
			}
		}
		return out
	})
}

// TestNoCKeyTracksMeasureConfig perturbs every noc-section input: a
// point's key changes exactly when its fabric or its resolved
// noc.MeasureConfig does. An explicit default, a hotspot node under a
// pattern that ignores it, and a one-window measure_windows sweep key as
// the plain point they equal.
func TestNoCKeyTracksMeasureConfig(t *testing.T) {
	base := `{"workload": "noc-synthetic", "seeds": [1], "noc": {"width": 4, "height": 4, "topologies": ["torus"], "routers": ["deflection"], "patterns": ["hotspot"], "rates": [0.1], "hotspot_node": 5, "warmup_cycles": 100}}`
	mutations := []keyMutation{
		{`"width": 4, "height": 4`, `"width": 6, "height": 4`},
		{`"width": 4, "height": 4`, `"width": 4, "height": 6`},
		{`["torus"]`, `["mesh"]`},
		{`["deflection"]`, `["wormhole"]`},
		{`["hotspot"]`, `["uniform"]`},
		{`[0.1]`, `[0.1000001]`},
		{`"hotspot_node": 5`, `"hotspot_node": 6`},
		{`"hotspot_node": 5`, `"hotspot_node": 5, "queue_cap": 8`},
		{`"hotspot_node": 5`, `"hotspot_node": 5, "burst": {"mean_on": 20, "mean_off": 80}`},
		{`"warmup_cycles": 100`, `"warmup_cycles": 101`},
		{`"warmup_cycles": 100`, `"warmup_cycles": 100, "measure_cycles": 3000`},
		{`"seeds": [1]`, `"seeds": [2]`},
	}
	aliases := []keyMutation{
		{`"hotspot_node": 5`, `"hotspot_node": 5, "queue_cap": 16`},
		{`"warmup_cycles": 100`, `"warmup_cycles": 100, "measure_cycles": 5000`},
		{`"warmup_cycles": 100`, `"warmup_cycles": 100, "measure_windows": [5000]`},
		{`"seeds": [1]`, `"name": "renamed", "output": "csv"`},
	}
	inputs := func(t *testing.T, s *Scenario) []pointInputs {
		jobs, err := s.NoC.jobs(s.seedList())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]pointInputs, len(jobs))
		for i, j := range jobs {
			mc, err := nocMeasureConfig(s.NoC, j)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = pointInputs{pointKey("scenario/noc", j.topo, mc), []any{j.topo, mc}}
		}
		return out
	}
	checkKeyTracksInputs(t, base, mutations, aliases, inputs)
	uniform := strings.Replace(base, `["hotspot"], "rates": [0.1], "hotspot_node": 5`, `["uniform"], "rates": [0.1]`, 1)
	checkKeyTracksInputs(t, uniform, nil, []keyMutation{
		{`"rates": [0.1]`, `"rates": [0.1], "hotspot_node": 7`},
	}, inputs)
}

// TestServiceKeyTracksMeasureConfig is the service section's
// counterpart: the key changes exactly when the fabric or the resolved
// noc.ServiceMeasureConfig does.
func TestServiceKeyTracksMeasureConfig(t *testing.T) {
	base := `{"workload": "service", "seeds": [1], "service": {"width": 4, "height": 4, "topologies": ["torus"], "routers": ["deflection"], "servers": 4, "arrival_rates": [0.03], "think_time": 8}}`
	mutations := []keyMutation{
		{`"width": 4, "height": 4`, `"width": 4, "height": 6`},
		{`["torus"]`, `["cmesh"]`},
		{`["deflection"]`, `["xy"]`},
		{`"servers": 4`, `"servers": 3`},
		{`[0.03]`, `[0.05]`},
		{`"think_time": 8`, `"think_time": 9`},
		{`"think_time": 8`, `"think_time": 8, "response_flits": 2`},
		{`"think_time": 8`, `"think_time": 8, "hotspot_skew": 0.8`},
		{`"think_time": 8`, `"think_time": 8, "queue_cap": 4`},
		{`"think_time": 8`, `"think_time": 8, "burst": {"mean_on": 5, "mean_off": 5}`},
		{`"think_time": 8`, `"think_time": 8, "warmup_cycles": 50`},
		{`"think_time": 8`, `"think_time": 8, "measure_cycles": 2000`},
		{`"seeds": [1]`, `"seeds": [7]`},
	}
	aliases := []keyMutation{
		{`"think_time": 8`, `"think_time": 8, "queue_cap": 16`},
		{`"think_time": 8`, `"think_time": 8, "response_flits": 1`},
		{`"think_time": 8`, `"think_time": 8, "measure_cycles": 5000`},
	}
	inputs := func(t *testing.T, s *Scenario) []pointInputs {
		jobs, err := s.Service.jobs(s.seedList())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]pointInputs, len(jobs))
		for i, j := range jobs {
			sc, err := serviceMeasureConfig(s.Service, j)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = pointInputs{pointKey("scenario/service", j.topo, sc), []any{j.topo, sc}}
		}
		return out
	}
	checkKeyTracksInputs(t, base, mutations, aliases, inputs)
	// Think time 0 (the field left out) and 1 simulate alike.
	thinkless := strings.Replace(base, `, "think_time": 8`, ``, 1)
	checkKeyTracksInputs(t, thinkless, nil, []keyMutation{
		{`"servers": 4`, `"servers": 4, "think_time": 1`},
	}, inputs)
}

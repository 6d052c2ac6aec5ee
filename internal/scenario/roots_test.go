package scenario

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestExampleRootsGolden pins every shipped scenario to the Merkle root
// of its result rows, recorded before the sweep loops were folded into
// par.Sweep: axis order, every measured figure and the kernel Speedup
// attach all reach the root, so any drift in the one execution path shows
// here as a changed hash on a named file. Re-record a root only with a
// change that is meant to alter simulated behaviour.
func TestExampleRootsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("roots are recorded on amd64: float fusing differs by GOARCH, so the low bits of the latency means do")
	}
	want := map[string]string{
		"bursty-hotspot":     "383537068fc8961ffceae70f19f365c376b5b06a718d455e237f32558691ea3c",
		"fig8-quick":         "10dfe7df4f704f962d5cc9fa43426ca1f30f3ce238601f7fc170aae34ec0f573",
		"kernel-ablation":    "35edbff9123bc8eb9f9515ee001509d72411a62897c6fa67845ec3c1f5cf2e55",
		"noc-load-sweep":     "ddf9e314a8a6307f5e0aea4075bcbc3afcce7471ef3970b50f58d6d0156e7ed6",
		"patterns-sweep":     "aa6eed44027c998e980a7e605bd1c8823b3a8002b88f31f2c09b089645e78680",
		"router-ablation":    "7587b91cd06ddc36d24461613842f347ac44354fae12dd41f1bba33f0985be88",
		"service-hotspot":    "74452418a197792489b0d76a97ed09df0a8b26e052d41c2215ef309080415e6a",
		"smoke":              "cadde0f26bd531d3ec2f724ce19a8abf820d25349b50deb837d53bb6ddd4d06b",
		"topology-ablation":  "8a2b4a21c61ae9310fe5d36cd04c6ef70a81cd490d6a0c70f36d1801ee78c8c8",
		"trace-record-quick": "74aa02f047ae15dbc3836c9b17aec8fdca0eb4da5146804ac426bb1c4d1cf114",
		"trace-replay":       "284995ba397fc1fd784e8419bb7ff4511d2313ddc4b1af89a26179f09c17ef5e",
		"window-sweep":       "b489b1ecbee53bc83da467c2c1809ec5aedcce81d6b02597f8e05ffa1f4cf4da",
	}
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("%d example scenarios, %d recorded roots", len(files), len(want))
	}
	for _, path := range files {
		_, root := runPlain(t, context.Background(), path)
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		if root != want[name] {
			t.Errorf("%s: merkle root %s, recorded %s", name, root, want[name])
		}
	}
}
